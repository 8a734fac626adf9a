"""The pluggable kernel layer: numpy/python parity and the fallback contract.

The numpy backend exists purely for speed — ``docs/flow.md`` promises it is
**bit-identical** to the pure-python reference for a fixed seed.  These tests
hold that promise at three levels:

* end to end: full flows (bitstream bytes + the entire ``summary()`` dict)
  across a spread of registry circuits and seeds;
* the acceptance benches (``qdi_multiplier_2x2``,
  ``gen:mult8x8@micropipeline``) must route under the default kernel;
* the placement cache: a hypothesis-driven random anneal protocol
  (mutate → propose → commit/reject) compared move-by-move against the
  reference cache and the full :func:`repro.cad.place._hpwl` recompute.

The resolution contract (``auto`` falls back, explicit ``numpy`` raises when
the dependency is absent) is tested by erasing the module's numpy handle, so
it runs on both CI legs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cad.kernels as kernels
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.kernels import KernelUnavailableError, numpy_available, resolve_kernel
from repro.cad.place import NetCostCache, _hpwl
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams, RoutingParams

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="optional numpy extra not installed"
)

#: Registry circuits of the end-to-end parity sweep: both logic styles, both
#: encodings, fifos, adders and the decomposed multiplier.
PARITY_CIRCUITS = (
    "qdi_full_adder",
    "qdi_full_adder_1of4",
    "micropipeline_full_adder",
    "qdi_multiplier_2x2",
    "wchb_fifo_4",
    "wchb_fifo_8",
    "qdi_ripple_adder_2",
    "qdi_ripple_adder_4",
)
PARITY_SEEDS = (1, 7)

#: The standard routable fabric (the golden multiplier test's geometry).
ROUTABLE = ArchitectureParams(routing=RoutingParams(channel_width=10))


def _flow(name: str, seed: int, kernel: str):
    options = FlowOptions(placement_seed=seed, kernel=kernel)
    return CadFlow(ROUTABLE, options).run(build_circuit(name))


# ----------------------------------------------------------------------
# Kernel resolution and fallback
# ----------------------------------------------------------------------
def test_resolve_kernel_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("fortran")


def test_auto_falls_back_to_python_without_numpy(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy", None)
    assert resolve_kernel("auto") == "python"
    assert resolve_kernel("python") == "python"


def test_explicit_numpy_raises_without_numpy(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy", None)
    with pytest.raises(KernelUnavailableError, match="fast"):
        resolve_kernel("numpy")


def test_flow_options_reject_unknown_kernel():
    with pytest.raises(ValueError):
        FlowOptions(kernel="fortran")


def test_kernel_choice_is_execution_side():
    # The backend must never perturb flow identity: not the options dict the
    # sweep hashes, and not the summary the store caches.
    assert "kernel" not in FlowOptions(kernel="python").to_dict()
    assert FlowOptions(kernel="python") == FlowOptions(kernel="auto")
    result = CadFlow(ROUTABLE, FlowOptions(kernel="python")).run(
        build_circuit("qdi_full_adder")
    )
    assert result.kernel == "python"
    assert "kernel" not in result.summary()


# ----------------------------------------------------------------------
# End-to-end parity: numpy == python, bit for bit
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("name", PARITY_CIRCUITS)
@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_numpy_flow_bit_identical_to_python(name, seed):
    python = _flow(name, seed, "python")
    numpy = _flow(name, seed, "numpy")
    assert python.kernel == "python" and numpy.kernel == "numpy"
    assert numpy.summary() == python.summary()
    if python.bitstream is not None or numpy.bitstream is not None:
        assert numpy.bitstream.to_bytes() == python.bitstream.to_bytes()
    assert numpy.placement.plb_sites == python.placement.plb_sites
    assert numpy.placement.io_sites == python.placement.io_sites


@needs_numpy
def test_auto_resolves_to_numpy_when_available():
    result = CadFlow(ROUTABLE, FlowOptions(kernel="auto")).run(
        build_circuit("qdi_full_adder")
    )
    assert result.kernel == "numpy"


# ----------------------------------------------------------------------
# Acceptance benches route
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["qdi_multiplier_2x2", "gen:mult8x8@micropipeline"]
)
def test_acceptance_benches_route(name):
    if name.startswith("gen:mult8x8"):
        from repro.circuits.generate import recommended_fabric
        from repro.circuits.specs import build_from_spec

        bench = build_from_spec(name)
        params = recommended_fabric(bench)
    else:
        bench = build_circuit(name)
        params = ROUTABLE
    summary = CadFlow(params, FlowOptions()).run(bench).summary()
    assert summary["routing_success"] is True


# ----------------------------------------------------------------------
# Placement cache parity, property-based
# ----------------------------------------------------------------------
@st.composite
def _anneal_protocol(draw):
    """A random net structure plus a random mutate/propose/commit protocol."""
    coord = st.integers(min_value=0, max_value=6)
    n_plbs = draw(st.integers(min_value=2, max_value=5))
    plb_names = [f"plb{i}" for i in range(n_plbs)]
    io_names = ["in0", "out0"]
    terminals = plb_names + [f"io:{name}" for name in io_names]
    n_nets = draw(st.integers(min_value=1, max_value=6))
    nets = {
        f"net{i}": draw(
            st.lists(st.sampled_from(terminals), min_size=1, max_size=4, unique=True)
        )
        for i in range(n_nets)
    }
    plb_sites = {name: (draw(coord), draw(coord)) for name in plb_names}
    io_positions = {name: (float(draw(coord)), float(draw(coord))) for name in io_names}
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(plb_names),  # terminal to move
                coord,  # new x
                coord,  # new y
                st.booleans(),  # commit?
            ),
            min_size=1,
            max_size=12,
        )
    )
    return nets, plb_sites, io_positions, steps


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(_anneal_protocol())
def test_numpy_cache_matches_reference_and_full_hpwl(protocol):
    from repro.cad.kernels.placement import NumpyNetCostCache

    nets, plb_sites, io_positions, steps = protocol
    caches = [
        NetCostCache(nets, dict(plb_sites), dict(io_positions)),
        NumpyNetCostCache(nets, dict(plb_sites), dict(io_positions)),
    ]
    assert caches[1].total == caches[0].total
    assert caches[0].total == _hpwl(nets, plb_sites, io_positions)
    live = dict(plb_sites)
    for terminal, new_x, new_y, commit in steps:
        old = live[terminal]
        new = (new_x, new_y)
        deltas = []
        for cache in caches:
            # The place_design protocol: mutate the live dict, then propose
            # the move with old/new coordinates.
            cache.plb_sites[terminal] = new
            deltas.append(
                cache.propose_moves(
                    [(terminal, (float(old[0]), float(old[1])), (float(new_x), float(new_y)))]
                )
            )
        assert deltas[1] == deltas[0]
        if commit:
            live[terminal] = new
            for cache in caches:
                cache.commit()
        else:
            for cache in caches:
                cache.plb_sites[terminal] = old
                cache.reject()
        reference = _hpwl(nets, live, io_positions)
        for cache in caches:
            assert cache.total == reference
    # Counter parity: evaluations and bbox fast-path hits are part of the
    # pinned summary contract, so the array cache must count identically.
    assert caches[1].evaluations == caches[0].evaluations
    assert caches[1].bbox_updates == caches[0].bbox_updates
