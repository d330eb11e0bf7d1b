"""The backward contract, checked step by step.

The tape adds a later contribution into a gradient it owns in place, so every
VJP must return new arrays, or the incoming gradient or views of it: never an
array its step's closure holds (a forward value such as a kept output, an
input's data or a weight copy) and never a parameter's data. A VJP that broke
this would corrupt that array silently on the next addition. ``contract``
wraps ``tensor._record_joint`` so that each recorded step's results are
checked as the step runs.
"""

import numpy as np
import pytest
from conftest import reachable, synth_image, synth_mask

import linpaint.cli as cli
import linpaint.tensor as T
from linpaint.autograd import Parameter
from linpaint.tensor import Tape, Tensor, fused_op, hadamard, make_rng, sum_all
from linpaint.unet import ModelConfig


@pytest.fixture
def contract(monkeypatch, created_parameters):
    """Check every step recorded while the test runs; returns the names of
    the VJPs whose array results were checked, one entry per result."""
    record = T._record_joint
    checked = []

    def checked_record(out, inputs, vjp):
        def checked_vjp(g, needs):
            held = reachable([vjp], np.ndarray) + [p.data for p in created_parameters]
            for grad in vjp(g, needs):
                if isinstance(grad, np.ndarray):
                    shared = [a.shape for a in held if np.may_share_memory(grad, a)]
                    assert not shared, (f"{vjp.__qualname__} returned a gradient that shares "
                                        f"memory with held arrays of shapes {shared}")
                    checked.append(vjp.__qualname__)
                yield grad

        record(out, inputs, checked_vjp)

    monkeypatch.setattr(T, "_record_joint", checked_record)
    return checked


def test_every_gradcheck_unit_keeps_the_contract(monkeypatch, contract):
    monkeypatch.setattr(T, "_BAND", 8)      # the banded units span several bands
    results = cli._gradcheck_ops(0)
    assert len(results) == 15 and all(err < 1e-4 for _, err in results)
    # 82 results: the fused ops' VJPs and those of every _record op.
    assert {"FeedForward.__call__.<locals>.vjp", "gated_projection.<locals>.vjp",
            "multi_head_attention.<locals>.vjp", "_record.<locals>.<lambda>"} <= set(contract)
    assert len(contract) >= 80


def test_a_training_step_keeps_the_contract(contract):
    # One C=4 train_toy iteration: the generator's and the discriminator's
    # backward passes, the losses and the spectral norm.
    img = np.round(synth_image(32, 32, seed=0) * 255) / 255.0
    run = cli.RunConfig(model=ModelConfig(base_channels=4), seed=0, iters=1, lr=1e-3,
                        disc_width=4)
    cli.train_toy(run, img, synth_mask(32, 32, 0.25, seed=1), None, None)
    assert {"FeedForward.__call__.<locals>.vjp", "gated_projection.<locals>.vjp",
            "multi_head_attention.<locals>.vjp"} <= set(contract)
    assert len(contract) >= 600     # 684 results


def _probe(vjp_of):
    """The backward of sum(p * p) through one op whose step holds
    kept = 2 p, with the VJP ``vjp_of(g, kept, p)``; returns p."""
    p = Parameter(make_rng(0).normal(size=5))
    kept = p.data * 2.0
    with Tape() as tape:
        y = fused_op(p.data * p.data, "probe", (p,), lambda g, needs: [vjp_of(g, kept, p)])
        tape.backward(sum_all(hadamard(y, Tensor(np.ones(5)))))
    return p


def test_the_checker_accepts_a_new_array_and_the_incoming_gradient(contract):
    p = _probe(lambda g, kept, p: g * kept)
    assert np.array_equal(p.grad, 2.0 * p.data)
    _probe(lambda g, kept, p: g)
    _probe(lambda g, kept, p: g.reshape(1, 5)[0])
    assert len(contract) >= 3


@pytest.mark.parametrize("mutant", [
    lambda g, kept, p: np.multiply(g, kept, out=kept),
    lambda g, kept, p: np.multiply(g, kept, out=kept).reshape(1, 5)[0],
    lambda g, kept, p: np.multiply(g, 2.0 * p.data, out=p.data),
], ids=["held_array", "view_of_held_array", "parameter_data"])
def test_the_checker_catches_a_gradient_that_aliases_held_memory(contract, mutant):
    with pytest.raises(AssertionError, match="shares memory"):
        _probe(mutant)
