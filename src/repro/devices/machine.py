"""The machine a schedule maps onto: an ordered mesh of devices + links.

Historically this was the paper's coupled CPU-GPU pair (§VI-A).  Nothing
in DUET's scheduling algorithm forces exactly two devices — the scheduler
only ever consumes per-subgraph ``(time, bytes)`` tuples — so the
:class:`Machine` is an ordered *mesh*: a device list plus per-pair
:class:`~repro.devices.interconnect.Interconnect` link models, looked up
by name.  The legacy two-device keyword constructor
(``Machine(cpu=..., gpu=..., interconnect=...)``) still works and builds
a 2-device mesh whose behaviour is bit-identical to the old dataclass.

Topologies can be described in JSON (see ``examples/mesh.json``) and
loaded with :func:`load_mesh`; :func:`make_mesh` builds the common
"one host CPU + N PCIe GPUs" shape programmatically, with optional
per-GPU ``slowdown`` factors for heterogeneous meshes.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Iterable, Mapping

from repro.devices.base import Device
from repro.devices.interconnect import Interconnect, make_pcie3
from repro.devices.noise import (
    CPU_NOISE,
    GPU_NOISE,
    NO_NOISE,
    PCIE_NOISE,
    NoiseModel,
)
from repro.devices.specs import (
    PCIE3_X16,
    TITAN_V,
    XEON_GOLD_6152,
    DeviceSpec,
    InterconnectSpec,
)
from repro.errors import DeviceError

__all__ = [
    "Machine",
    "default_machine",
    "load_mesh",
    "make_cpu",
    "make_gpu",
    "make_mesh",
    "scale_device",
]

#: Named base device specs a mesh JSON may reference.
_BASE_SPECS: dict[str, DeviceSpec] = {
    "xeon_gold_6152": XEON_GOLD_6152,
    "titan_v": TITAN_V,
}

#: Named base link specs a mesh JSON may reference.
_BASE_LINKS: dict[str, InterconnectSpec] = {
    "pcie3_x16": PCIE3_X16,
}

#: Device-kind default noise models (mesh JSON ``noisy: true``).
_KIND_NOISE: dict[str, NoiseModel] = {"cpu": CPU_NOISE, "gpu": GPU_NOISE}


def scale_device(device: Device, slowdown: float) -> Device:
    """A copy of ``device`` running ``slowdown``x slower.

    Models contention / thermal throttling: compute throughput and memory
    bandwidth shrink by the factor; launch overhead is host-side and
    unchanged.  Used by the online-adaptation engine both to *inject*
    interference in experiments and to *represent* its current belief
    about a drifted device, and by heterogeneous meshes to derate one
    device relative to its siblings.
    """
    if slowdown <= 0:
        raise DeviceError(f"slowdown must be positive, got {slowdown}")
    spec = device.spec
    scaled = DeviceSpec(
        name=f"{spec.name} (x{slowdown:.2f} load)",
        kind=spec.kind,
        peak_gflops=spec.peak_gflops / slowdown,
        mem_bandwidth_gbps=spec.mem_bandwidth_gbps / slowdown,
        launch_overhead_s=spec.launch_overhead_s,
        saturation_parallelism=spec.saturation_parallelism,
        efficiency=dict(spec.efficiency),
    )
    return Device(name=device.name, spec=scaled, noise=device.noise)


def make_cpu(noisy: bool = True) -> Device:
    """The paper's Xeon Gold 6152 host CPU."""
    return Device(
        name="cpu", spec=XEON_GOLD_6152, noise=CPU_NOISE if noisy else NO_NOISE
    )


def make_gpu(noisy: bool = True, name: str = "gpu") -> Device:
    """The paper's Titan V GPU (optionally renamed for multi-GPU meshes)."""
    return Device(
        name=name, spec=TITAN_V, noise=GPU_NOISE if noisy else NO_NOISE
    )


def _pair(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) key of an undirected device pair."""
    return (a, b) if a <= b else (b, a)


class Machine:
    """An ordered mesh of named devices joined by point-to-point links.

    The legacy two-device form ``Machine(cpu=..., gpu=...,
    interconnect=...)`` builds a mesh of exactly those two devices with
    the interconnect as the (only) link; the mesh form takes an ordered
    ``devices`` sequence plus per-pair ``links`` and/or a
    ``default_link`` used for any pair without an explicit entry.

    Device order is semantically meaningful and preserved: schedulers
    enumerate candidates, tie-break, and seed per-device RNG streams in
    this order, so two meshes with the same devices in a different order
    are different machines.
    """

    def __init__(
        self,
        cpu: Device | None = None,
        gpu: Device | None = None,
        interconnect: Interconnect | None = None,
        *,
        devices: Iterable[Device] | None = None,
        links: Mapping[tuple[str, str], Interconnect] | None = None,
        default_link: Interconnect | None = None,
    ):
        if devices is None:
            if cpu is None or gpu is None or interconnect is None:
                raise DeviceError(
                    "Machine needs either (cpu, gpu, interconnect) or a "
                    "devices= list"
                )
            devices = (cpu, gpu)
            default_link = interconnect if default_link is None else default_link
        elif cpu is not None or gpu is not None or interconnect is not None:
            raise DeviceError(
                "Machine(devices=...) excludes the legacy cpu/gpu/interconnect "
                "arguments"
            )
        self._devices: tuple[Device, ...] = tuple(devices)
        if not self._devices:
            raise DeviceError("a machine needs at least one device")
        self._by_name: dict[str, Device] = {}
        for dev in self._devices:
            if dev.name in self._by_name:
                raise DeviceError(f"duplicate device name {dev.name!r}")
            self._by_name[dev.name] = dev
        self._links: dict[tuple[str, str], Interconnect] = {}
        for key, link in (links or {}).items():
            a, b = key
            if a not in self._by_name or b not in self._by_name:
                raise DeviceError(
                    f"link {key!r} references a device outside "
                    f"{self.device_names}"
                )
            if a == b:
                raise DeviceError(f"self-link {key!r} is meaningless")
            self._links[_pair(a, b)] = link
        self._default_link = default_link
        if self._default_link is None and len(self._devices) > 1:
            for a_dev, b_dev in zip(self._devices, self._devices[1:]):
                if _pair(a_dev.name, b_dev.name) not in self._links:
                    raise DeviceError(
                        f"no link between {a_dev.name!r} and {b_dev.name!r} "
                        "and no default_link"
                    )

    # ------------------------------------------------------------------
    # lookup

    @property
    def devices(self) -> tuple[Device, ...]:
        """The mesh's devices, in canonical order."""
        return self._devices

    @property
    def device_names(self) -> tuple[str, ...]:
        """Device placement names, in canonical order."""
        return tuple(d.name for d in self._devices)

    def device(self, name: str) -> Device:
        """Look up a device by placement name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DeviceError(
                f"unknown device {name!r}; this machine has "
                f"{list(self.device_names)}"
            ) from None

    def peers(self, name: str) -> tuple[str, ...]:
        """Every *other* device's name, in canonical order — the failover
        survivor candidates when ``name`` is lost."""
        self.device(name)  # raise on unknown names
        return tuple(n for n in self.device_names if n != name)

    @property
    def host(self) -> str:
        """The host device's name: ``"cpu"`` when present, else the
        first device.  External inputs originate here and model outputs
        land here."""
        return "cpu" if "cpu" in self._by_name else self._devices[0].name

    # ------------------------------------------------------------------
    # links

    def link(self, a: str, b: str) -> Interconnect:
        """The link carrying transfers between devices ``a`` and ``b``
        (symmetric; per-pair entry first, else the default link)."""
        if a == b:
            raise DeviceError(f"no link from {a!r} to itself")
        self.device(a)
        self.device(b)
        link = self._links.get(_pair(a, b))
        if link is not None:
            return link
        if self._default_link is None:
            raise DeviceError(f"no link between {a!r} and {b!r}")
        return self._default_link

    @property
    def links(self) -> dict[tuple[str, str], Interconnect]:
        """Every device pair's link, keyed by sorted name pair."""
        out: dict[tuple[str, str], Interconnect] = {}
        names = self.device_names
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                out[_pair(a, b)] = self.link(a, b)
        return out

    # ------------------------------------------------------------------
    # legacy two-device accessors

    @property
    def cpu(self) -> Device:
        """The host CPU device (by name, else the first cpu-kind device)."""
        return self._kind_device("cpu")

    @property
    def gpu(self) -> Device:
        """The GPU device (by name, else the first gpu-kind device)."""
        return self._kind_device("gpu")

    def _kind_device(self, kind: str) -> Device:
        dev = self._by_name.get(kind)
        if dev is not None:
            return dev
        for d in self._devices:
            if d.spec.kind == kind:
                return d
        raise DeviceError(f"machine has no {kind} device: {self.device_names}")

    @property
    def interconnect(self) -> Interconnect:
        """The single link of a uniform mesh (legacy accessor).

        Raises :class:`~repro.errors.DeviceError` on a mesh with
        heterogeneous per-pair links — use :meth:`link` there.
        """
        distinct = {id(l) for l in self._links.values()}
        if self._default_link is not None:
            if not self._links or distinct == {id(self._default_link)}:
                return self._default_link
        elif len(distinct) == 1:
            return next(iter(self._links.values()))
        raise DeviceError(
            "machine has heterogeneous links; use machine.link(a, b)"
        )

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Machine):
            return NotImplemented
        return (
            self._devices == other._devices
            and self.links == other.links
        )

    __hash__ = None  # mutable-free but unhashable, like the old dataclass in practice

    def __repr__(self) -> str:
        return f"Machine(devices={list(self.device_names)})"


def default_machine(noisy: bool = True) -> Machine:
    """The paper's evaluation machine: Xeon 6152 + Titan V over PCIe 3.0."""
    return Machine(
        cpu=make_cpu(noisy),
        gpu=make_gpu(noisy),
        interconnect=make_pcie3(PCIE_NOISE if noisy else NO_NOISE),
    )


def make_mesh(
    num_gpus: int = 2,
    noisy: bool = True,
    gpu_slowdowns: Iterable[float] | None = None,
) -> Machine:
    """A host CPU plus ``num_gpus`` Titan-V GPUs, all on PCIe 3.0 links.

    GPUs are named ``gpu0``, ``gpu1``, ... in mesh order.  An optional
    ``gpu_slowdowns`` sequence (one factor per GPU) derates individual
    GPUs via :func:`scale_device`, producing a heterogeneous mesh.
    """
    if num_gpus < 1:
        raise DeviceError(f"need at least one GPU, got {num_gpus}")
    slowdowns = list(gpu_slowdowns) if gpu_slowdowns is not None else []
    if slowdowns and len(slowdowns) != num_gpus:
        raise DeviceError(
            f"got {len(slowdowns)} slowdowns for {num_gpus} GPUs"
        )
    devices: list[Device] = [make_cpu(noisy)]
    for i in range(num_gpus):
        gpu = make_gpu(noisy, name=f"gpu{i}")
        if slowdowns and slowdowns[i] != 1.0:
            gpu = scale_device(gpu, slowdowns[i])
        devices.append(gpu)
    link = make_pcie3(PCIE_NOISE if noisy else NO_NOISE)
    return Machine(devices=devices, default_link=link)


# ----------------------------------------------------------------------
# JSON mesh topologies (examples/mesh.json)


def _device_from_json(entry: Mapping, noisy: bool) -> Device:
    try:
        name = entry["name"]
    except KeyError:
        raise DeviceError("mesh device entry needs a 'name'") from None
    base_key = entry.get("base", "titan_v")
    try:
        spec = _BASE_SPECS[base_key]
    except KeyError:
        raise DeviceError(
            f"unknown base spec {base_key!r}; choose from "
            f"{sorted(_BASE_SPECS)}"
        ) from None
    overrides = {
        k: entry[k]
        for k in ("peak_gflops", "mem_bandwidth_gbps", "launch_overhead_s",
                  "saturation_parallelism")
        if k in entry
    }
    if overrides:
        spec = replace(spec, efficiency=dict(spec.efficiency), **overrides)
    kind = entry.get("kind", spec.kind)
    if kind != spec.kind:
        raise DeviceError(
            f"device {name!r} declares kind {kind!r} but its base spec "
            f"{base_key!r} is a {spec.kind}"
        )
    use_noise = entry.get("noisy", noisy)
    noise = _KIND_NOISE.get(kind, NO_NOISE) if use_noise else NO_NOISE
    device = Device(name=name, spec=spec, noise=noise)
    slowdown = entry.get("slowdown", 1.0)
    if slowdown != 1.0:
        device = scale_device(device, slowdown)
    return device


def _link_from_json(entry: Mapping, noisy: bool) -> Interconnect:
    base_key = entry.get("base", "pcie3_x16")
    try:
        spec = _BASE_LINKS[base_key]
    except KeyError:
        raise DeviceError(
            f"unknown base link {base_key!r}; choose from "
            f"{sorted(_BASE_LINKS)}"
        ) from None
    overrides = {
        k: entry[k]
        for k in ("base_latency_s", "bandwidth_gbps")
        if k in entry
    }
    if overrides:
        spec = replace(spec, **overrides)
    use_noise = entry.get("noisy", noisy)
    return Interconnect(spec=spec, noise=PCIE_NOISE if use_noise else NO_NOISE)


def load_mesh(source) -> Machine:
    """Build a :class:`Machine` from a JSON topology.

    ``source`` is a file path, an open file object, or an
    already-decoded ``dict``.  Schema (see ``examples/mesh.json``)::

        {
          "noisy": true,
          "devices": [
            {"name": "cpu",  "base": "xeon_gold_6152"},
            {"name": "gpu0", "base": "titan_v"},
            {"name": "gpu1", "base": "titan_v", "slowdown": 1.3}
          ],
          "links": [
            {"between": ["gpu0", "gpu1"], "bandwidth_gbps": 25.0}
          ],
          "default_link": {"base": "pcie3_x16"}
        }

    Device entries reference a named base spec (``xeon_gold_6152`` /
    ``titan_v``) with optional throughput overrides and a ``slowdown``
    derating factor; link entries reference ``pcie3_x16`` with optional
    latency/bandwidth overrides.  Any pair without an explicit link uses
    ``default_link`` (PCIe 3.0 when omitted).
    """
    if isinstance(source, Mapping):
        payload = source
    elif hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source) as f:
            payload = json.load(f)
    if not isinstance(payload, Mapping):
        raise DeviceError("mesh JSON must be an object")
    noisy = bool(payload.get("noisy", True))
    entries = payload.get("devices")
    if not entries:
        raise DeviceError("mesh JSON needs a non-empty 'devices' list")
    devices = [_device_from_json(e, noisy) for e in entries]
    links: dict[tuple[str, str], Interconnect] = {}
    for entry in payload.get("links", ()):
        between = entry.get("between")
        if not between or len(between) != 2:
            raise DeviceError(
                "mesh link entry needs 'between': [name, name]"
            )
        links[(between[0], between[1])] = _link_from_json(entry, noisy)
    default_entry = payload.get("default_link", {})
    default_link = _link_from_json(default_entry, noisy)
    return Machine(devices=devices, links=links, default_link=default_link)
