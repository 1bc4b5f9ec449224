"""End-to-end synthesis tests: exact states, frozen constants, cost shape."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shallowprep import dists
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

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


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
    """The Dicke builder reads the ratio table without the bound check that
    warned below ell = k^3."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_dicke(8, 2, 4)


def test_build_symmetric_reduces_to_dicke():
    out = build_symmetric(4, (0, 0, 1))
    state = run(out.circuit)
    ov = output_overlap(state, dicke_vector(4, 2), out.output_qubits)
    assert abs(ov) ** 2 > 1 - 1e-9


def test_build_symmetric_complex_weights():
    eta = (0.5, 0.5j, -math.sqrt(0.5))
    out = build_symmetric(4, eta)
    assert_exact(out)
    assert out.info["k_star"] == 2


def test_build_symmetric_padded():
    out = build_symmetric(5, (0.6, 0.8), ell=2)
    assert out.info["padded_to"] == 6
    assert out.info["Z"] > 0
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
# amplify_to_exact its own round loop
EMITTED_SHA256 = {
    "dicke(4,1,2)": "cc0b82268ac76cb5564f4660b19936f35c6bf1d26d80f5c24ebf7450a4f86da4",
    "dicke(4,1,4)": "d408bb83c8e9df6ae5df7561eaf743f9144d41ba49de8d666d60df2ec61df7b8",
    "dicke(4,2,2)": "636fba3b191d9169d9ba5f4d5c97876cadf402cc322437dbbbed809cd913e8e0",
    "dicke(6,2,3)": "92f1a477e6923a918475d95063db7bcc60b520a9f0c286ff03e6e6ce610125b2",
    "dicke(8,2,4)": "a7e719e81ad8792cfb4e99293ccc92ffef191f303250bc164cbf525d23361f77",
    "dicke(6,1,3)": "d6487b9ecbe4076ddd58c29ee614af3d2041dd4095557d364453ad01a8ac1e6b",
    "dicke(8,1,4)": "fdd915dbe8adf6b324c36cc92a4fcccb5836e16aa7e4922a140ed265f71bb4a1",
    "dicke(5,1,2)": "c04c0aa6e12ea36d78720df024c30310addc7fb9ce34d6a5f6c92d4f18a7c988",
    "dicke(7,2,4)": "a423a869a4cc1b4397aa7b90700c8f077687cef5bdaca23850c7dd893836d2b4",
    "dicke(8,6,None)": "0000ef27791bd4a6d6121e030ef5cc09c203a5ae09117ffacf782bcf241598ee",
    "dicke(5,0,None)": "c57ecd3628469fd7f4e42071b282ca4dfa1b991cd40206326d507fa09d3f20b2",
    "dicke(16,2,None)": "ce721a768b362d5171c70fa018a3267a1572891e8142136d2d920756e25acf82",
    "dicke(24,3,None)": "98c4b3e5c3011486640d0c99ea7271f26d0a0813f57f7043f32c9e6f821d1b04",
    "dicke(64,3,None)": "9c5a50917671a94294b118968b6d15738e78e942bc88e77fc4ba47523ecab3b0",
    "dicke(1009,2,None)": "0949890646ce376a37ec306e2fbd526877905505af84508252a56f4833d72149",
    "symmetric(4,weights-01)": "2241ce458632d711bd9ca1b68a4a6f73ac09ad00d707a008fc46b45688641352",
    "symmetric(4,weights-12)": "d49c4316d6746e8eb216d9d20b021b8f9919c6b99d642471e8b6bc026adb29af",
    "symmetric(4,weights-012-phase)": "c9c1a5595c29d0a17c6d410bd3b685b797f031ef73a2c2f818c81bad1166f0fb",
    "symmetric(5,weights-01,2)": "d47d82006259d7a14ad5b16ba48e023c41c34ef8b3a829f10d2fc0d7be06f5ee",
    "ctrl_damped_explicit(4,2)": "79a05616f0c81063ff0e4666185cb85df0b6d7a9ec225ed7349314cf0237d5e5",
    "zero_w_explicit(3)": "978fdb22a435d5275f5421ca12eabbd818df7129619574a2d810321177e1c6a3",
    "onehot_dist(1/2,1/3,1/6)": "f5a0fac504a8c49c0af473533d5e2776023e0327171741c7093e1e2fbf8ddd47",
    "small_state(4)": "1c1ee52bd710f387ffa025d84743f14263cc2b678069572024a9323a00c10cdd",
    "amplify(1/4)": "9a6e30cdd34d3720a333861fc161f8a90c46e90f6ab13e2d6b86fd77a4ce6d74",
    "amplify(sin^2(pi/10))": "9bf5c200263d9ea3510240d968236b8ca54011395c214d7d95b5f6dd6c4b6927",
    "amplify(0.4)": "b0787e4bf873cc272c0f34f16914a788b7355e07000c029ec7680d586d807452",
    "amplify(1)": "c01bdbb8de4483877f5a6334260eecd5ecc843ea97163cca5a6a5f17553fecf6",
}


def test_emitted_circuits_are_pinned():
    got = {
        label: hashlib.sha256(serialize(build()).encode()).hexdigest()
        for label, build in _pinned_builds().items()
    }
    assert got == EMITTED_SHA256
