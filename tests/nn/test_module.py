"""Tests for the Module/Parameter registration and state-dict machinery."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter, Sequential
from repro.tensor import Tensor


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestRegistration:
    def test_parameters_collected_recursively(self):
        model = Toy()
        names = [n for n, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        model = Toy()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_trainable_only_count(self):
        model = Toy()
        model.fc1.requires_grad_(False)
        assert model.num_parameters(trainable_only=True) == 8 * 2 + 2

    def test_named_modules(self):
        model = Toy()
        names = [n for n, _ in model.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_get_submodule(self):
        model = Toy()
        assert model.get_submodule("fc1") is model.fc1
        with pytest.raises(KeyError):
            model.get_submodule("nope")

    def test_modulelist_indexing_and_paths(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(ml) == 2
        assert ml[1] is list(ml)[1]
        names = [n for n, _ in ml.named_parameters()]
        assert "0.weight" in names and "1.weight" in names

    def test_modulelist_slice(self):
        ml = ModuleList([Linear(2, 2) for _ in range(4)])
        sub = ml[1:3]
        assert len(sub) == 2

    def test_rebinding_a_registered_name_drops_its_old_entry(self):
        model = Toy()
        model.fc2 = None
        assert [n for n, _ in model.named_parameters()] == [
            "fc1.weight", "fc1.bias",
        ]
        assert set(model.state_dict()) == {"fc1.weight", "fc1.bias"}
        # a Parameter rebound over a sub-module registers as a parameter
        model.fc1 = Parameter(np.zeros(3))
        assert [n for n, _ in model.named_parameters()] == ["fc1"]
        assert model.children() == []

    def test_rebinding_a_buffer_keeps_it_with_the_new_value(self):
        module = Module()
        module.register_buffer("mask", np.ones(2))
        module.mask = np.zeros(2)
        assert np.array_equal(module.state_dict()["mask"], np.zeros(2))
        module.mask = None
        assert "mask" not in module.state_dict()


class TestModes:
    def test_train_eval_propagates(self):
        model = Toy()
        model.eval()
        assert not model.training
        assert not model.fc1.training
        model.train()
        assert model.fc2.training

    def test_zero_grad(self):
        model = Toy()
        x = Tensor(np.ones((3, 4)))
        model(x).sum().backward()
        assert model.fc1.weight.grad is not None
        model.zero_grad()
        assert model.fc1.weight.grad is None

    def test_requires_grad_freeze(self):
        model = Toy()
        model.requires_grad_(False)
        x = Tensor(np.ones((3, 4)))
        out = model(x)
        assert not out.requires_grad


class TestStateDict:
    def test_roundtrip(self):
        a, b = Toy(), Toy()
        b.fc1.weight.data[:] = 7.0
        a.load_state_dict(b.state_dict())
        assert np.allclose(a.fc1.weight.data, 7.0)

    def test_strict_missing_raises(self):
        model = Toy()
        state = model.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_strict_unexpected_raises(self):
        model = Toy()
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_non_strict_ignores_extras(self):
        model = Toy()
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        model.load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self):
        model = Toy()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_state_dict_copies_data(self):
        model = Toy()
        state = model.state_dict()
        state["fc1.weight"][:] = 123.0
        assert not np.allclose(model.fc1.weight.data, 123.0)

class TestSequential:
    def test_forward_chains(self):
        seq = Sequential(Linear(3, 5, rng=np.random.default_rng(0)),
                         Linear(5, 2, rng=np.random.default_rng(1)))
        out = seq(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert len(seq) == 2
        assert isinstance(seq[0], Linear)

    def test_parameter_is_tensor_with_grad(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad
