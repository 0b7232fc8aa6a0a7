import inspect
import pickle

import pytest

from mmreach import errors

# one instance of every error class, built with the arguments it is raised with
_INSTANCES = [
    errors.MmreachError("base"),
    errors.DimensionMismatchError("lengths differ"),
    errors.GeometryError("singular"),
    errors.SizeLimitError("too many corners"),
    errors.OrderError("unordered"),
    errors.ExprError("does not compile"),
    errors.ParseError("unknown identifier 'y1'", "x1 + y1", 6),
    errors.EvalError("non-finite", "(1 / x1)"),
    errors.SignIndefiniteError("dF1/dx2 changes sign", entry=(1, 2),
                               witnesses=[([0.0, 1.0], [0.0], 2.0),
                                          ([0.0, -1.0], [0.0], -2.0)]),
    errors.NotMonotoneError("dF1/dx2 < 0", witness=([0.0, 1.0], [0.0], -1.0)),
    errors.DivergenceError("diverged near t=0.5", last_time=0.5),
    errors.StepOrderError("order violation"),
    errors.EmptyIntersectionError("empty"),
    errors.ConfigError("expected a number", "initial_set.lo[0]"),
]


def test_every_error_class_has_an_instance():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.MmreachError)}
    assert {type(e) for e in _INSTANCES} == classes


@pytest.mark.parametrize("exc", _INSTANCES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    """The type, the message and every attribute come back under every
    pickle protocol, so a typed error raised in a worker process reaches
    its parent as it was raised."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)
