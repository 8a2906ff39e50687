"""The benchmark's tracer (``perfbench/spans.py``) wraps program
attributes by name; a renamed or removed attribute must fail here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer, install  # noqa: E402

from fracmv import mckean_vlasov, rate_function  # noqa: E402


def test_tracer_attaches_to_every_wrapped_name_and_restores_it():
    tracer = Tracer("attach-check")
    try:
        install(tracer)  # getattr on a missing name raises here
        patched = list(tracer._patched)
        wrappers = [vars(owner)[attr] for owner, attr, _ in patched]
    finally:
        tracer.restore()
    names = {(owner, attr) for owner, attr, _ in patched}
    assert {(mckean_vlasov, "auto_lambda"), (mckean_vlasov, "flow_distance"),
            (rate_function, "solve_controlled")} <= names
    assert all(w is not original for w, (_, _, original) in zip(wrappers, patched))
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
