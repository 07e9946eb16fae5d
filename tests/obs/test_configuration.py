"""The process tracer: read once, replaced by ``configure`` and ``disable``."""

import repro.obs as obs


def test_replacing_the_tracer_closes_the_journal_it_replaced(tmp_path):
    first = obs.configure(tmp_path / "a")
    obs.emit("ping")
    assert first.journal._fd is not None
    second = obs.configure(tmp_path / "b")
    assert first.journal._fd is None
    assert obs.tracer() is second
    obs.emit("ping")
    obs.disable()
    assert second.journal._fd is None
    assert not obs.enabled()
    assert [e["type"] for e in obs.read_events(tmp_path / "a")] == ["ping"]
    assert [e["type"] for e in obs.read_events(tmp_path / "b")] == ["ping"]
