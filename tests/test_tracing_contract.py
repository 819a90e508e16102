"""The benchmark tracer's contract with the package (shorbench/tracing.py).

``--trace 1`` wraps module attributes, so the names it lists must exist,
the circuit must reach the transform through a module lookup, and QFT 2's
output must report its Q*P amplitudes.
"""

import importlib.util
from pathlib import Path

from shorlab import cli, contfrac, engine, numtheory, pipeline
from shorlab.engine import ModExpFunction, register_size

MODULES = {
    "cli": cli,
    "contfrac": contfrac,
    "engine": engine,
    "numtheory": numtheory,
    "pipeline": pipeline,
}


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "shorbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("shorbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_attribute():
    tracing = load_tracing()
    assert set(tracing.TARGETS) == set(MODULES)
    for module_name, names in tracing.TARGETS.items():
        for name in names:
            assert callable(getattr(MODULES[module_name], name, None)), f"{module_name}.{name}"


def test_circuit_looks_up_the_transform_twice(monkeypatch):
    outputs = []
    real = engine.apply_qft_reg1

    def recording(state):
        outputs.append(real(state))
        return outputs[-1]

    monkeypatch.setattr(engine, "apply_qft_reg1", recording)
    q_total = register_size(91)
    engine.period_finding_state(ModExpFunction(3, 91))
    assert len(outputs) == 2
    assert len(outputs[1].amplitudes) == q_total * 6


def test_tracer_counts_qft2_amplitudes():
    tracer = load_tracing().Tracer()
    q_total = register_size(91)
    with tracer.installed(MODULES):
        engine.simulated_distribution(ModExpFunction(3, 91))
    assert {"engine.qft1", "engine.qft2", "engine.apply_modexp_entangler"} <= set(tracer.names)
    assert tracer.counts["engine.amplitudes"] == q_total * 6


def test_tracer_counts_closed_form_outcomes(tmp_path):
    # The closed form keeps half a period; the count is still every outcome.
    tracer = load_tracing().Tracer()
    with tracer.installed(MODULES):
        cli.main(["distribution", "91", "3", "--closed-form", "--out", str(tmp_path / "x.csv")])
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("engine.closed_form_distribution") == 1
    assert tracer.counts["engine.closed_form_outcomes"] == 16384
