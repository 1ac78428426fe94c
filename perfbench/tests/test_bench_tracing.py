import sys
import textwrap
import types

import pytest

import tracing


def span(sid, name, start, end, parent=tracing.NO_PARENT, op=0):
    return (sid, name, start, end, parent, op)


def test_merged_length_unions_overlaps():
    assert tracing.merged_length([]) == 0
    assert tracing.merged_length([(0, 10), (5, 15), (20, 25), (25, 30)]) == 25


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, "outer", 0, 100),
        span(1, "mid", 10, 30, parent=0),
        span(2, "mid", 20, 50, parent=0),  # overlaps its sibling
        span(3, "leaf", 22, 28, parent=2),
        span(4, "leaf", 60, 70, parent=0),
        span(5, "leaf", 90, 120, parent=0),  # outlives its parent: clipped
    ]
    got = tracing.self_times(spans)
    assert got["outer"] == (1, 100 - (40 + 10 + 10))
    assert got["mid"] == (2, 20 + (30 - 6))
    assert got["leaf"] == (3, 6 + 10 + 30)


def test_self_times_partition_top_level_time():
    spans = [
        span(0, "a", 0, 50),
        span(1, "b", 5, 45, parent=0),
        span(2, "c", 10, 20, parent=1),
        span(3, "c", 25, 40, parent=1),
        span(4, "a", 60, 80),
    ]
    total = sum(ns for _, ns in tracing.self_times(spans).values())
    assert total == 50 + 20


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """pkg.a defines f and g; pkg.b and the package root import them by name."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .a import f\nfrom .b import h\n")
    (root / "a.py").write_text(textwrap.dedent("""
        class Oops(Exception):
            pass

        def g(x):
            if x < 0:
                raise Oops("negative")
            return x + 1

        def f(x):
            return g(x) * 2
    """))
    (root / "b.py").write_text("from .a import f, g\n\ndef h(x):\n    return f(x) + g(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import pkg

    yield pkg
    for name in [m for m in sys.modules if m == "pkg" or m.startswith("pkg.")]:
        del sys.modules[name]


def test_install_wraps_every_import_site(fake_package):
    pkg = fake_package
    layers = {"a": ("f", "g"), "b": ("h",)}
    original_f = pkg.a.f
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, pkg, pkg.a.Oops, layers)
    for mod in (pkg, pkg.a, pkg.b):
        assert mod.f is not original_f and mod.f.__wrapped__ is original_f
    assert pkg.b.g is pkg.a.g

    tracer.op_id = 7
    assert pkg.h(1) == 4 + 2
    got = tracing.self_times(tracer.spans)
    assert {name: calls for name, (calls, _) in got.items()} == {"b.h": 1, "a.f": 1, "a.g": 2}
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, _, _, parent, op in tracer.spans:
        assert op == 7
        if name == "a.g":
            assert by_id[parent][1] in ("a.f", "b.h")

    with pytest.raises(pkg.a.Oops):
        pkg.b.h(-1)
    assert tracer.errors == {"a": 2, "b": 1}  # g, then f, then h boundary

    inst.disable()
    assert pkg.a.f is original_f and pkg.b.f is original_f and pkg.f is original_f
    inst.enable()
    assert pkg.b.f is not original_f
    inst.disable()


def test_install_rejects_missing_function(fake_package):
    with pytest.raises(tracing.TraceCoverageError, match="a.nope"):
        tracing.install(tracing.Tracer(), fake_package, Exception, {"a": ("f", "nope")})
    with pytest.raises(tracing.TraceCoverageError, match="zz.f"):
        tracing.install(tracing.Tracer(), fake_package, Exception, {"zz": ("f",)})


def test_install_rejects_a_binding_it_cannot_rebind(fake_package):
    pkg = fake_package
    original_f = pkg.a.f

    class Stubborn(types.ModuleType):
        def __setattr__(self, name, value):
            if name != "f":
                super().__setattr__(name, value)

    pkg.b.__class__ = Stubborn
    with pytest.raises(tracing.TraceCoverageError, match="pkg.b.f"):
        tracing.install(tracing.Tracer(), pkg, Exception, {"a": ("f",)})
    assert pkg.a.f is original_f  # rolled back


def test_install_covers_the_real_package():
    import wristband as wb

    tracer = tracing.Tracer()
    inst = tracing.install(tracer, wb, wb.WristbandError)
    try:
        for mod in ("calibration", "pairwise", "spectral", "wristband_map"):
            assert hasattr(getattr(wb, mod).wristband_forward, "__wrapped__"), mod
        assert hasattr(wb.evaluation.gaussian_batch, "__wrapped__")
        cfg = wb.KernelConfig(beta=8.0, alpha=wb.ALPHA_UNIFORM_STD)
        wb.calibrate_null(64, 4, cfg, reps=3, seed=0)
        calls = {name: c for name, (c, _) in tracing.self_times(tracer.spans).items()}
        assert calls["calibration.calibrate_null"] == 1
        assert calls["generators.gaussian_batch"] == 3
        assert calls["wristband_map.wristband_forward"] == 3
        assert calls["pairwise.pairwise_value_from_wristband"] == 3
        assert calls["specfun.chi2_cdf_array"] == 3
    finally:
        inst.disable()
    assert not hasattr(wb.calibration.wristband_forward, "__wrapped__")
