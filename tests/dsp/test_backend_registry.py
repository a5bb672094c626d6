"""Backend registry, selection, and identity-exposure tests."""

import numpy as np
import pytest

from repro.dsp.backend import (
    DEFAULT_BACKEND,
    ENV_VAR,
    NumpyFloat64Backend,
    active_backend,
    active_backend_name,
    backend_infos,
    backend_names,
    get_backend,
    quick_conformance,
    set_active_backend,
    use_backend,
)
from repro.errors import DspBackendError, ReproError


@pytest.fixture(autouse=True)
def _restore_selection():
    yield
    set_active_backend(DEFAULT_BACKEND)


def test_registry_contains_the_expected_backends():
    names = backend_names()
    assert names[0] == DEFAULT_BACKEND  # ordinal 0 = the default
    assert "numpy-float32" in names


def test_default_backend_is_active_without_configuration(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_active_backend(None)
    assert active_backend_name() == DEFAULT_BACKEND
    assert isinstance(active_backend(), NumpyFloat64Backend)
    assert active_backend().bit_exact


def test_env_var_selects_the_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "numpy-float32")
    backend = set_active_backend(None)
    assert backend.name == "numpy-float32"
    assert active_backend_name() == "numpy-float32"


def test_unknown_backend_raises_typed_error():
    with pytest.raises(DspBackendError, match="unknown DSP backend"):
        get_backend("bogus")
    with pytest.raises(ReproError):  # part of the repro error hierarchy
        set_active_backend("bogus")


def test_use_backend_scopes_and_restores():
    set_active_backend(DEFAULT_BACKEND)
    with use_backend("numpy-float32") as backend:
        assert backend.name == "numpy-float32"
        assert active_backend_name() == "numpy-float32"
    assert active_backend_name() == DEFAULT_BACKEND
    # ...including when the body raises.
    with pytest.raises(RuntimeError):
        with use_backend("numpy-float32"):
            raise RuntimeError("boom")
    assert active_backend_name() == DEFAULT_BACKEND


def test_get_backend_returns_singletons():
    assert get_backend("numpy-float32") is get_backend("numpy-float32")
    assert get_backend(DEFAULT_BACKEND) is get_backend(DEFAULT_BACKEND)


def test_backend_infos_flags():
    infos = {info.name: info for info in backend_infos()}
    default = infos[DEFAULT_BACKEND]
    assert default.default and default.bit_exact
    assert default.dtype == "complex128"
    f32 = infos["numpy-float32"]
    assert not f32.default and not f32.bit_exact
    assert f32.dtype == "complex64"


def test_quick_conformance_verdicts():
    assert quick_conformance(DEFAULT_BACKEND) == "exact"
    verdict = quick_conformance("numpy-float32")
    assert verdict.startswith("pass(")


def test_selection_emits_telemetry_identity(tmp_path):
    from repro.telemetry import configure, deactivate

    telemetry = configure(out_dir=tmp_path)
    try:
        set_active_backend("numpy-float32")
        gauge = telemetry.metrics.snapshot()["dsp.backend"]
        assert gauge["value"] == float(backend_names().index("numpy-float32"))
        events = telemetry.events.of_kind("dsp.backend")
        assert events and events[-1]["backend"] == "numpy-float32"
        assert events[-1]["dtype"] == "complex64"
        assert events[-1]["bit_exact"] is False
    finally:
        deactivate()


def test_estimate_backend_kwarg_overrides_active_selection():
    from repro.core.tracking import TrackingConfig, estimate_windows_batch

    config = TrackingConfig(window_size=32, hop=8, subarray_size=12)
    rng = np.random.default_rng(3)
    windows = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
    explicit = estimate_windows_batch(
        windows, config, backend=get_backend(DEFAULT_BACKEND)
    )
    with use_backend("numpy-float32"):
        ambient = estimate_windows_batch(windows, config)
        overridden = estimate_windows_batch(
            windows, config, backend=get_backend(DEFAULT_BACKEND)
        )
    assert np.array_equal(overridden[0], explicit[0])
    # The ambient float32 run agrees within budget but not bit-for-bit
    # on generic Gaussian windows, so the override is observable.
    assert not np.array_equal(ambient[0], explicit[0])
