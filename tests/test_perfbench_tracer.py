"""The traced benchmark run wraps package names from outside the package
(``perfbench/spans.py``): every name it patches must still exist, and
``uninstall`` must put every original back."""
from pathlib import Path

#: the names ``Tracer.install`` patches; one the package drops is skipped
#: there, and its span then reads 0
PATCHED_NAMES = 29


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    installed = [vars(owner)[attr] is not original for owner, attr, original in patched]
    tracer.uninstall()
    assert all(installed)
    assert len(patched) == PATCHED_NAMES, "a name that perfbench/spans.py patches is gone"
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
