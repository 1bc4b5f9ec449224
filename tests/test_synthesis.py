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
    run,
    split,
)
from shallowprep.synthesis import (
    SynthesisOutput,
    build_dicke,
    build_symmetric,
    ctrl_damped_explicit,
    default_ell,
    prepare_zero_damped,
    symmetric_vector,
)


def assert_exact(out, tol=1e-9):
    res = check_clean_preparation(out.circuit, out.target, out.output_qubits)
    assert res.fidelity > 1 - tol, res.fidelity
    assert res.clean, res.residual_ancilla_mass
    return res


def test_dicke_vector_is_uniform():
    vec = library.dicke_column(4, 2)
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
            assert library.dicke_column(n, k).tobytes() == loop_dicke_vector(n, k).tobytes()
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
        library.dicke_column(3, 4)
    with pytest.raises(CircuitError, match="weight 4 out of range for 3 qubits"):
        symmetric_vector(3, (0.6, 0, 0, 0, 0.8))
    # a zero coefficient above n names no weight
    assert np.array_equal(symmetric_vector(3, (1, 0, 0, 0, 0)), library.dicke_column(3, 0))


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
    local, values, _ = split(run(out.circuit), out.output_qubits)
    ov = np.sum(np.conj(library.dicke_column(4, 2)[local]) * values)
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
    built = build_dicke(4, 1)
    assert "target" not in vars(built)
    assert built.target is built.target
    assert np.array_equal(built.target, symmetric_vector(4, built.eta))
    # a complemented build names its own eta, not the reversed one it built
    eta = (0.6, 0.8j)
    out = build_symmetric(4, (0, 0, 0) + eta)
    assert out.info["complemented"] and out.eta == (0, 0, 0) + eta
    assert out.target.tobytes() == symmetric_vector(4, out.eta).tobytes()
    assert SynthesisOutput(out.circuit, out.report, out.output_qubits, (0, 1)).target[1] == 0.5


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
# digests were made from that version-1 output by setting "version" to 2 and
# dropping each library gate's "declared_depth" and "declared_width" (which
# marked_prep appends to its args instead).  Format version 3 digests, made
# from that version-2 output by setting "version" to 3 and writing each
# maximal run of three or more consecutive qubits in a register, targets or
# controls list as a [start, stop) pair, through json.dumps(sort_keys=True)
EMITTED_SHA256 = {
    "dicke(4,1,2)": "fa9405dce98d8e18a36f6b401356fb8efa61a3ff9d6558146065423ad72ca336",
    "dicke(4,1,4)": "d39e6c79f5923c178381b036058efba628354deee7ae040e0c1ec9c6d3209b71",
    "dicke(4,2,2)": "a520ebcd6104a184a76638c302215b8bb7b36d02d2d56fd4e0f0aa7d52094605",
    "dicke(6,2,3)": "b11590782ac6895cf8132b732ab2e96ec58a23c1343ffa336c2c903ebf84dfd8",
    "dicke(8,2,4)": "1ec4181cd8a10405eb62d6688e9cc8fe1b3c6dd4751e89d26ad2a3d07c92665a",
    "dicke(6,1,3)": "5ece0eb334f4fa8a6c2f696de4bdb69fcb762c4b3a16f11db16744e4601c15b7",
    "dicke(8,1,4)": "e576d4cee60b9b7d7cfda5cf6699c93dfe0b769b2d579c4bf9b36538605c4811",
    "dicke(5,1,2)": "c58b8f42dcfebdab103599bf5a2ac7bb2f36d7a149cf22d49f60a5d84647d945",
    "dicke(7,2,4)": "317d741b060a3ab4e0ac2f4a2c8d2afef426b34a633a3c5390759e134c5506f4",
    "dicke(8,6,None)": "54181011f73c2ea2de626af3f1ea6b6c258c956e80a5852f5a1b1175cb8b2153",
    "dicke(5,0,None)": "81b10621f5afb558780588112653e493b02827711d18e2a8f9a77e2e7b1a7920",
    "dicke(16,2,None)": "59277d332d665e1ee18255c4748024676a9238c6ae7820ac0e0689bd6cd911da",
    "dicke(24,3,None)": "8098576e8517c0b76451f5b74503fde0cf22db374f95c372562ceec7b2d8c704",
    "dicke(64,3,None)": "85d58d214a995450fab2feb342925d51cd4add2531ea7b3cf73483a53b653fa5",
    "dicke(1009,2,None)": "4c2b9666842369ff43fe34e00cafd2b6c8faafafa6aae6e7dcb6b34ea73a2a21",
    "dicke(4,4,None)": "5b0da5efcd191c9be6f6bf1799dd8735b4136d377714f7d497828ba5dc681825",
    "dicke(7,5,None)": "61da619153b794d9b60488b2c0716779ddf28240d4e6ab7b8993e665f8fa2cf1",
    "dicke(24,21,None)": "00714d98679f783470131bbe8be84fed4130f80deaf948c71768322789e32562",
    "symmetric(4,weights-01)": "4b1032f3701db53877890b3be6337b03fce5f327602d41ca836a8b5330d83822",
    "symmetric(4,weights-12)": "da5a7cbe470b1ace801f3e758d068859f12929a6f27014ad7fd26e00fe1a426b",
    "symmetric(4,weights-012-phase)": "a433ce0a91b3332220569de6abc2cfa15f001945d542246debbcff950a40682e",
    "symmetric(5,weights-01,2)": "4ab750f810abde7baa907b81a030d1c62929ae2054ed41992455752e875d9628",
    "ctrl_damped_explicit(4,2)": "ffce7f8b904962d39951853a0d89a44844b35776d54869e2eee914a6d4f2c615",
    "zero_w_explicit(3)": "92600f43797332cb80b751b2232ead59f64161e4cc9beef5eb6abc29e388adbc",
    "onehot_dist(1/2,1/3,1/6)": "f9c8aab1886bc661dbc9ddad608114ca6c708be44136aeed87e65727b5035144",
    "small_state(4)": "59bc16dad743dde8fab4191119f032383ed946e44ec38af24a3c56858303765c",
    "amplify(1/4)": "8ef12260a4714229e8b1706126aee50bc535b22afac095a009a14b296b0450b4",
    "amplify(sin^2(pi/10))": "537ec54c5052b19e9006f2b251c3aacd4e751a42e928f1cc955bbec597eeb4c7",
    "amplify(0.4)": "c715ff7d9fe1172884b2e4d8ca00caa4e1b6e277d65b890ed0b8f90df37a11b2",
    "amplify(1)": "24a7625176406cc4a8b3a61c97bac25bbaa285222b14c542bd23369e436e28cf",
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
