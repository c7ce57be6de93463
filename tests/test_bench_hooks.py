"""The benchmark's span recorder wraps psgp functions by name. A name it wraps
that psgp drops would fail only the traced benchmark run, so the hooks are
installed and taken off here too."""
from pathlib import Path

from psgp import autodiff, cli, model, pretrain, stats, vectors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (autodiff, cli, model, pretrain, stats, vectors)


def test_span_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = {m: dict(vars(m)) for m in MODULES}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = {
            (m.__name__, name) for m in MODULES for name, obj in before[m].items()
            if getattr(m, name) is not obj
        }
    finally:
        tracer.restore()
    for op in spans.GRAPH_OPS:
        assert ("psgp.autodiff", op) in wrapped, op
    assert ("psgp.model", "stem_forward") in wrapped
    assert ("psgp.vectors", "project_segment") in wrapped
    for m in MODULES:
        for name, obj in before[m].items():
            assert getattr(m, name) is obj, (m.__name__, name)
