"""Every cpckit exception pickles to an equal one, so a failure raised in a
forked cross-validation worker reaches the CLI as it was raised."""

import inspect
import math
import pickle

import pytest

from cpckit import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def _instances():
    for cls in CLASSES:
        if cls is errors.Divergence:
            yield cls(3, math.inf)
            yield cls(3)
        else:
            yield cls("bad value 7")


@pytest.mark.parametrize("exc", list(_instances()), ids=repr)
def test_pickles_unchanged(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
