"""End-to-end synthesis tests: exact states, frozen constants, cost shape."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shallowprep import dists, library
from shallowprep.acceptance import DICKE_GRID, PADDED_GRID, _symmetric_cases
from shallowprep.circuits import (
    Builder,
    CircuitError,
    cost,
    deserialize,
    g_and,
    g_unitary1,
    serialize,
)
from shallowprep.library import damped_spread_column
from shallowprep.primitives import (
    amplify_to_exact,
    ctrl_from_zero_overlap,
    prepare_onehot_dist,
    prepare_small_state,
    rot_matrix,
    zero_w_explicit,
)
from shallowprep.simulate import (
    certify_library_gate,
    check_clean_preparation,
    output_overlap,
    run,
)
from shallowprep.synthesis import (
    SynthesisOutput,
    build_dicke,
    build_symmetric,
    ctrl_damped_explicit,
    default_ell,
    dicke_vector,
    prepare_zero_damped,
    symmetric_vector,
)


def assert_exact(out, tol=1e-9):
    res = check_clean_preparation(out.circuit, out.target, out.output_qubits)
    assert res.fidelity > 1 - tol, res.fidelity
    assert res.clean, res.residual_ancilla_mass
    return res


def test_dicke_vector_is_uniform():
    vec = dicke_vector(4, 2)
    hot = [i for i in range(16) if bin(i).count("1") == 2]
    for i in hot:
        assert abs(vec[i] - 1.0 / math.sqrt(6)) < 1e-12
    assert abs(np.vdot(vec, vec) - 1.0) < 1e-12


def test_symmetric_vector_combines_weights():
    eta = (0.6, 0.8)
    vec = symmetric_vector(3, eta)
    assert abs(vec[0] - 0.6) < 1e-12
    for i in (1, 2, 4):
        assert abs(vec[i] - 0.8 / math.sqrt(3)) < 1e-12


# ---- per-index loops: the reference for the popcount-built targets ----


def loop_dicke_vector(n, k):
    vec = np.zeros(2**n, dtype=complex)
    amp = 1.0 / math.sqrt(math.comb(n, k))
    for idx in range(2**n):
        if bin(idx).count("1") == k:
            vec[idx] = amp
    return vec


def loop_symmetric_vector(n, eta):
    vec = np.zeros(2**n, dtype=complex)
    for k, coeff in enumerate(eta):
        if coeff != 0:
            vec = vec + complex(coeff) * loop_dicke_vector(n, k)
    return vec


def test_targets_match_the_per_index_loops_byte_for_byte():
    for n in range(11):
        for k in range(n + 1):
            assert dicke_vector(n, k).tobytes() == loop_dicke_vector(n, k).tobytes()
    rng = np.random.default_rng(11)
    special = (0.0, -0.0, 1.0, -1.0, 0.5j, -0.5j, complex(-0.0, 0.25), complex(0.3, -0.0))
    for n in range(1, 9):
        for _ in range(6):
            eta = list(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            eta[rng.integers(n + 1)] = special[rng.integers(len(special))]
            got = symmetric_vector(n, eta)
            assert got.tobytes() == loop_symmetric_vector(n, eta).tobytes(), (n, eta)
        # real, Fraction and shorter coefficient lists
        for eta in ((Fraction(3, 5), Fraction(4, 5)), (0.6,), (0, -0.8, 0.6)):
            eta = eta[: n + 1]
            assert symmetric_vector(n, eta).tobytes() == loop_symmetric_vector(n, eta).tobytes()


def test_targets_refuse_a_weight_above_n():
    with pytest.raises(CircuitError, match="weight 4 out of range for 3 qubits"):
        dicke_vector(3, 4)
    with pytest.raises(CircuitError, match="weight 4 out of range for 3 qubits"):
        symmetric_vector(3, (0.6, 0, 0, 0, 0.8))
    # a zero coefficient above n names no weight
    assert np.array_equal(symmetric_vector(3, (1, 0, 0, 0, 0)), dicke_vector(3, 0))


def test_prepare_zero_damped_frozen_gammas():
    assert prepare_zero_damped(2, 2)[2] == Fraction(1, 2)
    assert prepare_zero_damped(2, 1)[2] == Fraction(3, 7)
    assert prepare_zero_damped(3, 2)[2] == Fraction(13, 29)


def test_ctrl_from_zero_overlap_leaves_its_input_alone():
    """Extending a built circuit must not log rounds into the original."""
    prep, data, gamma = prepare_zero_damped(4, 2)
    text = serialize(prep)
    ctrl_from_zero_overlap(prep, data, 1 - gamma)
    assert serialize(prep) == text
    assert len(prep.metadata["rounds"]) == len(prep.metadata["round_layer_cost"])


def test_prepare_zero_damped_state():
    """The block ends at sqrt(1-gamma)|0..0> + sqrt(gamma)(damped spread)."""
    m, k = 2, 2
    circuit, data, gamma = prepare_zero_damped(m, k)
    target = math.sqrt(float(gamma)) * damped_spread_column(m, k)
    target[0] = math.sqrt(1.0 - float(gamma))
    res = check_clean_preparation(circuit, target, data)
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_prepare_zero_damped_validation():
    with pytest.raises(CircuitError):
        prepare_zero_damped(1, 1)
    with pytest.raises(CircuitError):
        prepare_zero_damped(3, 4)


def test_ctrl_damped_explicit_certifies():
    circuit, io = ctrl_damped_explicit(2, 1)
    report = certify_library_gate("ctrl_damped", (2, 1), circuit, io)
    assert report.worst_overlap > 1 - 1e-9


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2)])
def test_build_dicke_divisible(n, k):
    out = build_dicke(n, k)
    assert_exact(out)
    assert out.info["ell"] is not None


def test_build_dicke_padded():
    out = build_dicke(5, 1, ell=2)
    assert out.info["padded_to"] == 6
    assert isinstance(out.info["p0"], Fraction)
    assert_exact(out)


def test_build_dicke_complement():
    out = build_dicke(4, 3)
    assert out.info.get("complemented")
    assert_exact(out)


def test_build_dicke_complement_keeps_an_explicit_ell():
    """D^8_6 with ell = 4 is the complement of D^8_2 with ell = 4; no 4 blocks
    of 2 qubits hold 6 ones directly."""
    out = build_dicke(8, 6, 4)
    assert out.info["complemented"]
    assert out.info["ell"] == 4 and out.info["k_star"] == 2
    assert_exact(out)


def test_build_dicke_trivial_weights():
    for k in (0, 4):
        out = build_dicke(4, k)
        assert out.info["ell"] is None
        assert_exact(out)


def test_build_dicke_rejects_weight_over_block_count():
    with pytest.raises(CircuitError):
        build_dicke(6, 3, ell=2)


def test_default_ell_rules():
    assert default_ell(8, 2) == 4
    assert default_ell(12, 2) == 6
    assert default_ell(9, 3) == 3
    assert default_ell(6, 1) == 1
    # no divisor works for 5, so the padding fallback picks 4
    assert default_ell(5, 2) == 4
    with pytest.raises(CircuitError):
        default_ell(2, 2)


def test_build_dicke_below_the_cube_regime_does_not_warn():
    """Building below ell = k^3 raises no warning; the claims sweep, not the
    builder, decides which points are in the constant-bound regime."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_dicke(8, 2, 4)


def _one_hot(k):
    return (0,) * k + (1,)


def test_build_symmetric_reduces_to_dicke():
    out = build_symmetric(4, _one_hot(2))
    assert serialize(out.circuit) == serialize(build_dicke(4, 2).circuit)
    state = run(out.circuit)
    ov = output_overlap(state, dicke_vector(4, 2), out.output_qubits)
    assert abs(ov) ** 2 > 1 - 1e-9


@pytest.mark.parametrize(
    "n,k,ell",
    list(DICKE_GRID) + list(PADDED_GRID)
    + [(16, 2, None), (24, 3, None), (64, 3, None), (1009, 2, None)],
)
def test_build_symmetric_on_a_one_hot_eta_is_build_dicke(n, k, ell):
    """A one-hot eta takes the Dicke construction gate for gate."""
    got = serialize(build_symmetric(n, _one_hot(k), ell).circuit)
    assert got == serialize(build_dicke(n, k, ell).circuit)


@pytest.mark.parametrize("coeff", [-1, 1j])
def test_build_symmetric_drops_a_one_hot_phase(coeff):
    """A one-hot eta's phase is global: the circuit is the e_k circuit, and it
    prepares the phased target up to that global phase."""
    eta = (0, 0, coeff)
    out = build_symmetric(8, eta, 4)
    assert serialize(out.circuit) == serialize(build_dicke(8, 2, 4).circuit)
    assert_exact(out)


def test_build_symmetric_complements_a_high_weight_mix():
    """Weights {8, 9} on 9 qubits are built as weights {1, 0}, then flipped;
    no block count would hold 9 ones directly."""
    eta = (0,) * 8 + (0.6, 0.8j)
    out = build_symmetric(9, eta)
    assert out.info["complemented"]
    assert out.info["k_star"] == 1
    assert_exact(out)


def test_build_symmetric_complements_a_high_weight_mix_at_an_explicit_ell():
    out = build_symmetric(9, (0,) * 8 + (0.6, 0.8j), ell=3)
    assert out.info["complemented"]
    assert out.info["ell"] == 3
    assert_exact(out)


def test_build_symmetric_complex_weights():
    eta = (0.5, 0.5j, -math.sqrt(0.5))
    out = build_symmetric(4, eta)
    assert_exact(out)
    assert out.info["k_star"] == 2


def test_build_symmetric_padded():
    out = build_symmetric(5, (0.6, 0.8), ell=2)
    assert out.info["padded_to"] == 6
    assert 0 < out.info["p0"] < 1
    assert_exact(out)


def test_build_symmetric_trailing_zeros_trimmed():
    out = build_symmetric(3, (1.0, 0.0, 0.0))
    assert out.info["k_star"] == 0
    assert_exact(out)


def test_build_symmetric_builds_one_hit_table(monkeypatch):
    """The ratio sum and the pair amplitudes read the same ratio tables."""
    built = []
    real = dists.hit_table

    def counted(m, k_cap):
        built.append((m, k_cap))
        return real(m, k_cap)

    monkeypatch.setattr(dists, "hit_table", counted)
    build_symmetric(27, (0.5, 0.5, 0.5, 0.5))
    assert built == [(3, 3)]


def test_build_symmetric_validation():
    with pytest.raises(CircuitError, match="norm"):
        build_symmetric(4, (0.5, 0.5))
    with pytest.raises(CircuitError, match="exceeds"):
        build_symmetric(2, (0.0, 0.0, 0.0, 1.0))


def test_synthesis_output_target_is_lazy_and_cached():
    out = SynthesisOutput(
        circuit=build_dicke(4, 1).circuit,
        report=build_dicke(4, 1).report,
        output_qubits=(0, 1, 2, 3),
    )
    with pytest.raises(CircuitError, match="target"):
        out.target
    built = build_dicke(4, 1)
    assert built.target is built.target


def test_costs_do_not_depend_on_qubit_count():
    """Layer count, declared depth, and fanout width are n-independent."""
    ref = build_dicke(8, 2, ell=4)
    ref_layers = len(ref.circuit.layers)
    assert ref_layers == 24
    for n in (16, 24):
        out = build_dicke(n, 2, ell=4)
        assert len(out.circuit.layers) == ref_layers
        assert out.report.depth == ref.report.depth
        assert out.report.max_fanout_width == ref.report.max_fanout_width
        assert out.report.grover_rounds == ref.report.grover_rounds


def test_synthesized_circuit_serializes():
    out = build_dicke(4, 2)
    text = serialize(out.circuit)
    back = deserialize(text)
    assert cost(back).as_dict() == out.report.as_dict()
    res = check_clean_preparation(back, out.target, out.output_qubits)
    assert res.fidelity > 1 - 1e-9


def test_build_symmetric_refuses_a_non_finite_weight():
    """A NaN norm passed the old ``> 1e-9`` check and was refused only
    later, by a library gate built from it."""
    for bad in (float("nan"), complex(0.6, float("nan")), float("inf")):
        with pytest.raises(CircuitError, match="weight coefficients have norm"):
            build_symmetric(4, (0.8, bad))


# ---- pinned emitted circuits ----


def _amplified(alpha):
    """One data qubit at mass alpha, its flag amplified: no shrink qubit
    when alpha is sin^2(pi/(2r)), a shrink qubit otherwise."""
    b = Builder()
    data = b.add_register("d", 1)[0]
    flag = b.new_register("flag", 1)[0]
    b.append(g_unitary1(data, rot_matrix(1.0 - alpha)))
    b.append(g_and((data,), flag))
    amplify_to_exact(b, flag, alpha)
    return b.build()


def _pinned_builds():
    """Label -> thunk building the circuit whose serialization is pinned."""
    cases = {}
    dicke = list(DICKE_GRID) + list(PADDED_GRID) + [(8, 6, None), (5, 0, None)]
    dicke += [(16, 2, None), (24, 3, None), (64, 3, None), (1009, 2, None)]
    dicke += [(4, 4, None), (7, 5, None), (24, 21, None)]
    for n, k, ell in dicke:
        cases[f"dicke({n},{k},{ell})"] = lambda n=n, k=k, ell=ell: build_dicke(n, k, ell).circuit
    for label, eta in _symmetric_cases():
        cases[f"symmetric(4,{label})"] = lambda eta=eta: build_symmetric(4, eta).circuit
    cases["symmetric(5,weights-01,2)"] = lambda: build_symmetric(5, (0.6, 0.8), ell=2).circuit
    cases["ctrl_damped_explicit(4,2)"] = lambda: ctrl_damped_explicit(4, 2)[0]
    cases["zero_w_explicit(3)"] = lambda: zero_w_explicit(3)[0]
    cases["onehot_dist(1/2,1/3,1/6)"] = lambda: prepare_onehot_dist(
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    )[0].build()
    cases["small_state(4)"] = lambda: prepare_small_state((0.5, 0.5j, -0.5, 0.5))[0].build()
    for label, alpha in (("1/4", 0.25), ("sin^2(pi/10)", math.sin(math.pi / 10) ** 2),
                         ("0.4", 0.4), ("1", 1.0)):
        cases[f"amplify({label})"] = lambda alpha=alpha: _amplified(alpha)
    return cases


# SHA-256 of serialize(...) for each pinned build, as emitted while the Dicke
# builder still had its own ratio table and distribution body and
# amplify_to_exact its own round loop; the k = n and complement pins, as
# emitted while build_dicke was still a builder of its own.  Format version 2
# digests, made from that version-1 output by setting "version" to 2 and
# dropping each library gate's "declared_depth" and "declared_width" (which
# marked_prep appends to its args instead)
EMITTED_SHA256 = {
    "dicke(4,1,2)": "0c6205a7149822713bd4f42397b35da8a7ec85ffdaf32683a866210acad7183c",
    "dicke(4,1,4)": "fb2a79e8f500183aacabf9332a5dd2b7c58bcfede54684900dd9641590054835",
    "dicke(4,2,2)": "02db41fc4f26a5a37d203210e01b166c4e0d9b0c049446ace87b730de19d9b0d",
    "dicke(6,2,3)": "7fd2acee6dc0fabd3751d72a9a210d51d1dd3ea83da4562950f4595a43cf20ce",
    "dicke(8,2,4)": "95bbc34fa1b447ca08631597360331bdc308b4d93e29bea45be5cf65bd6ffabf",
    "dicke(6,1,3)": "31aa9201d2ad260a62c152bbd71bce777a7be30ac0c256c9b743034f63b28d40",
    "dicke(8,1,4)": "6b6834dce8dbf97bcb19a28814f220e13dd27a6791d57c6960b8a14d83af6066",
    "dicke(5,1,2)": "48477cf35a0867beb6d64386527ce7d3cbf4aa09543609cb48dbee27da8c8c47",
    "dicke(7,2,4)": "cbadd610388dd843899fe14f89090e058f07498641db082a06c168d111fba454",
    "dicke(8,6,None)": "854f928d53e33000847c5dedd7aa444a063fa1bb5e8decc390696520956f442e",
    "dicke(5,0,None)": "283fec5afdc9876c58c28672535b7785b75759248a04b982d0d97635a03d78f9",
    "dicke(16,2,None)": "97a185e33f32d96aa8b4a75d33d53a6c02b68a24c3d408e1f167be00ae46d607",
    "dicke(24,3,None)": "c56115c47cd74f013a3c88951ece83e1610cd6f2437cf60371fda08286b3b872",
    "dicke(64,3,None)": "a9ebe8f40e9d96e5824df488c41115b24ac7f5bbc13a144fceccd18b331a900c",
    "dicke(1009,2,None)": "13606425dd1a276b361b32412f5a82589b1fb7bf3db5604191bed7542af159b5",
    "dicke(4,4,None)": "8e9d29d8f3c24b542f6a1a62598a3dd9ec141f723470dd81d64be75bc317221c",
    "dicke(7,5,None)": "bf850c0dff8b43bd11a27ec57355922f8ad921ec84d3dd8c0d3555b76b185089",
    "dicke(24,21,None)": "b2f45d40f6e9951aedfc9018494a24da3cc1ef9debee1c297ffc062ed84362f1",
    "symmetric(4,weights-01)": "1a9aadf5c5389b91e6d50d96e570c0e251d67291479e9b020f46a80f180aab42",
    "symmetric(4,weights-12)": "3b2e2e629c46691dcb11670c3bad7421c664a45da2e5b3f913c221198542561a",
    "symmetric(4,weights-012-phase)": "4f95cc7e273c135ed9e70615122bbea6b9c1186c6bf38f8c936bd3604b326b83",
    "symmetric(5,weights-01,2)": "a301ca5dc0abfc454ee8169b496e3592e06bca296c8ad9d569f8746092d676ba",
    "ctrl_damped_explicit(4,2)": "a02dcc04a47b2f88030cf4ddf830636c4e234f9eb20836e9170231e13841b7aa",
    "zero_w_explicit(3)": "86a2059c701a817496a7f604abb320812df95d88c258662b3b695f8b2e74e0ef",
    "onehot_dist(1/2,1/3,1/6)": "b0ac3b49c85c13d85c8d1081109b0efec29e7a8b135f905fceb72fe55e115c79",
    "small_state(4)": "058f12c90d65168799096448141672a8ca42c24acb5cec18c68e3aac693538e9",
    "amplify(1/4)": "0b33662586351f720683ef93db2d382f0d3cd1227f6791b9b4716e97b5991ba3",
    "amplify(sin^2(pi/10))": "80a48ef2b3364a058bf85c949da86c191b99c127e02cd5fb324e32c3a1033202",
    "amplify(0.4)": "f99fba449e76ce236fd3ae5e882a79bb7a2ba53c44e035edc460c843a83343d8",
    "amplify(1)": "a01662d67cee413edd89be7952186f9c540f61dc8f60576bd28c7ec51c2a9f71",
}


def test_emitted_circuits_are_pinned():
    got = {
        label: hashlib.sha256(serialize(build()).encode()).hexdigest()
        for label, build in _pinned_builds().items()
    }
    assert got == EMITTED_SHA256


def test_pinned_costs_are_the_registry_sums():
    """cost() of every pinned build charges each layer the largest registry
    depth of its library gates (1 when it has none), and reports the widest
    native or registry fanout."""
    for label, build in _pinned_builds().items():
        circuit = build()
        depth = fanout = 0
        for layer in circuit.layers:
            charged = [
                library.entry(g.params["tag"]).cost(g.params["args"])
                for g in layer
                if g.kind == "library"
            ]
            depth += max([1] + [d for d, _ in charged])
            native = [len(g.targets) for g in layer if g.kind == "fanout"]
            fanout = max([fanout] + [w for _, w in charged] + native)
        report = cost(circuit)
        assert (report.depth, report.max_fanout_width) == (depth, fanout), label
