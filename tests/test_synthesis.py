"""End-to-end synthesis tests: exact states, frozen constants, cost shape."""

import math
from fractions import Fraction

import numpy as np
import pytest

from shallowprep.circuits import CircuitError, cost, deserialize, serialize
from shallowprep.library import damped_spread_column
from shallowprep.primitives import ctrl_from_zero_overlap
from shallowprep.simulate import (
    certify_library_gate,
    check_clean_preparation,
    output_overlap,
    run,
)
from shallowprep.synthesis import (
    SynthesisOutput,
    build_dicke,
    build_occupancy_state,
    build_symmetric,
    ctrl_damped_explicit,
    default_ell,
    dicke_vector,
    occupancy_vector,
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


def test_occupancy_vector_tags_block_count():
    vec = occupancy_vector(4, 2, 2)
    # x = 0011 occupies one block of size two; record slot 1 is the low bit
    n, k = 4, 2
    idx = 0
    for i in range(n):
        if (0b0011 >> i) & 1:
            idx |= 1 << (n + k - 1 - i)
    idx |= 1 << (k - 1)
    assert abs(vec[idx] - 1.0 / math.sqrt(6)) < 1e-12


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


def test_build_occupancy_state_frozen_ratio():
    out = build_occupancy_state(4, 2, 2)
    assert out.info["R"] == Fraction(123, 32)
    assert out.info["p"] == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert_exact(out)


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
