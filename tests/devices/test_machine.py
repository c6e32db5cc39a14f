"""Tests for Machine (pair and mesh forms) and the interconnect wrapper."""

import numpy as np
import pytest

from repro.devices import (
    Interconnect,
    default_machine,
    load_mesh,
    make_cpu,
    make_gpu,
    make_mesh,
    make_pcie3,
    scale_device,
)
from repro.errors import DeviceError


class TestMachine:
    def test_device_lookup(self, machine):
        assert machine.device("cpu") is machine.cpu
        assert machine.device("gpu") is machine.gpu

    def test_unknown_device_raises(self, machine):
        with pytest.raises(DeviceError):
            machine.device("tpu")

    def test_devices_tuple(self, machine):
        assert machine.devices == (machine.cpu, machine.gpu)

    def test_noisy_flag(self):
        noisy = default_machine(noisy=True)
        quiet = default_machine(noisy=False)
        assert noisy.cpu.noise.jitter_sigma > 0
        assert quiet.cpu.noise.jitter_sigma == 0

    def test_factories(self):
        assert make_cpu().kind == "cpu"
        assert make_gpu().kind == "gpu"


class TestMesh:
    def test_make_mesh_shape(self):
        mesh = make_mesh(num_gpus=2, noisy=False)
        assert mesh.device_names == ("cpu", "gpu0", "gpu1")
        assert mesh.host == "cpu"
        assert mesh.device("gpu1").kind == "gpu"

    def test_peers(self):
        mesh = make_mesh(num_gpus=3)
        assert mesh.peers("gpu1") == ("cpu", "gpu0", "gpu2")
        with pytest.raises(DeviceError):
            mesh.peers("tpu")

    def test_heterogeneous_slowdowns(self):
        mesh = make_mesh(num_gpus=2, noisy=False, gpu_slowdowns=(1.0, 2.0))
        fast = mesh.device("gpu0").spec
        slow = mesh.device("gpu1").spec
        assert slow.peak_gflops == pytest.approx(fast.peak_gflops / 2)
        assert slow.launch_overhead_s == fast.launch_overhead_s

    def test_scale_device_rejects_nonpositive(self):
        with pytest.raises(DeviceError):
            scale_device(make_gpu(), 0.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DeviceError, match="duplicate"):
            from repro.devices import Machine

            Machine(
                devices=[make_gpu(name="g"), make_gpu(name="g")],
                default_link=make_pcie3(),
            )

    def test_legacy_and_mesh_kwargs_exclusive(self):
        from repro.devices import Machine

        with pytest.raises(DeviceError):
            Machine(cpu=make_cpu(), devices=[make_gpu()])

    def test_per_pair_link_override(self):
        from repro.devices import Machine
        from repro.devices.specs import PCIE3_X16
        from dataclasses import replace

        fast = Interconnect(
            spec=replace(PCIE3_X16, bandwidth_gbps=25.0),
            noise=make_pcie3().noise,
        )
        mesh = Machine(
            devices=[make_cpu(False), make_gpu(False, "gpu0"),
                     make_gpu(False, "gpu1")],
            links={("gpu0", "gpu1"): fast},
            default_link=make_pcie3(),
        )
        # symmetric lookup, and only the overridden pair gets the fast link
        assert mesh.link("gpu1", "gpu0") is fast
        assert mesh.link("cpu", "gpu0") is not fast
        with pytest.raises(DeviceError, match="heterogeneous"):
            mesh.interconnect

    def test_self_link_rejected(self):
        mesh = make_mesh(num_gpus=2)
        with pytest.raises(DeviceError):
            mesh.link("gpu0", "gpu0")

    def test_default_machine_is_two_device_mesh(self, machine):
        assert machine.device_names == ("cpu", "gpu")
        assert machine.peers("gpu") == ("cpu",)
        assert machine.links == {("cpu", "gpu"): machine.interconnect}


class TestLoadMesh:
    PAYLOAD = {
        "noisy": False,
        "devices": [
            {"name": "cpu", "base": "xeon_gold_6152"},
            {"name": "gpu0", "base": "titan_v"},
            {"name": "gpu1", "base": "titan_v", "slowdown": 1.3},
        ],
        "links": [{"between": ["gpu0", "gpu1"], "bandwidth_gbps": 25.0}],
        "default_link": {"base": "pcie3_x16"},
    }

    def test_load_from_dict(self):
        mesh = load_mesh(self.PAYLOAD)
        assert mesh.device_names == ("cpu", "gpu0", "gpu1")
        assert mesh.device("cpu").kind == "cpu"
        # slowdown derates gpu1 relative to gpu0
        assert (
            mesh.device("gpu1").spec.peak_gflops
            < mesh.device("gpu0").spec.peak_gflops
        )
        # the gpu0-gpu1 link override carries the custom bandwidth
        assert mesh.link("gpu0", "gpu1").spec.bandwidth_gbps == 25.0
        assert mesh.link("cpu", "gpu0").spec.bandwidth_gbps != 25.0

    def test_load_from_file(self, tmp_path):
        import json

        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert load_mesh(path).device_names == ("cpu", "gpu0", "gpu1")

    def test_example_mesh_loads(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parents[2] / "examples" / "mesh.json"
        )
        mesh = load_mesh(example)
        assert len(mesh.devices) == 3
        assert mesh.host == "cpu"

    def test_unknown_base_spec_rejected(self):
        with pytest.raises(DeviceError, match="unknown base spec"):
            load_mesh({"devices": [{"name": "x", "base": "h100"}]})

    def test_missing_devices_rejected(self):
        with pytest.raises(DeviceError):
            load_mesh({"devices": []})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DeviceError, match="kind"):
            load_mesh(
                {"devices": [
                    {"name": "x", "base": "titan_v", "kind": "cpu"}
                ]}
            )


class TestInterconnect:
    def test_sample_noiseless_equals_mean(self, rng):
        link = make_pcie3()
        assert link.sample_transfer_time(2**20, rng) == link.transfer_time(2**20)

    def test_sample_noisy_varies(self, noisy_machine, rng):
        link = noisy_machine.interconnect
        xs = {link.sample_transfer_time(2**20, rng) for _ in range(10)}
        assert len(xs) > 1

    def test_bandwidth_monotone_in_size(self):
        link = make_pcie3()
        sizes = [2**k for k in range(10, 28, 3)]
        bws = [link.bandwidth_at(s) for s in sizes]
        assert bws == sorted(bws)

    def test_zero_bytes_bandwidth(self):
        assert make_pcie3().bandwidth_at(0) == 0.0
