//! Shared MMIO devices (§3, §7.4).
//!
//! The hardware model makes "all MMIO devices accessible by all
//! processors"; Stramash-QEMU realises this by creating a memory mapping
//! for a device an instance lacks, "redirect\[ing\] all memory accesses to
//! the QEMU instance containing the respective device" (§7.4). This
//! module models that: a registry of devices, each physically attached
//! to one domain, with register accesses from the other domain paying a
//! forwarding cost over the interconnect.

use std::fmt;
use stramash_mem::PhysAddr;
use stramash_sim::{Cycles, DomainId, IntMap};

/// Identifier of a registered device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub u32);

/// Classes of devices the platform exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// The NIC (used by the TCP messaging baseline and the KV store).
    Nic,
    /// A block device.
    Block,
    /// The interrupt-routing peripheral that carries cross-ISA IPIs
    /// (§7.2 routes native IPIs through a peripheral device).
    IpiBridge,
    /// A UART console.
    Console,
}

/// One MMIO device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Registry id.
    pub id: DeviceId,
    /// Device class.
    pub class: DeviceClass,
    /// The domain whose instance physically hosts the device.
    pub owner: DomainId,
    /// Base of its MMIO window.
    pub mmio_base: PhysAddr,
    /// Window length in bytes.
    pub mmio_len: u64,
}

impl Device {
    /// Whether `addr` falls inside this device's window.
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() >= self.mmio_base.raw() && addr.raw() < self.mmio_base.raw() + self.mmio_len
    }
}

/// Errors from device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// No device maps the address.
    NoDevice(PhysAddr),
    /// The MMIO window collides with an existing device.
    WindowOverlap,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NoDevice(pa) => write!(f, "no device mapped at {pa}"),
            DeviceError::WindowOverlap => f.write_str("MMIO window overlaps an existing device"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Latency of an uncached MMIO register access on the owning instance.
const LOCAL_MMIO_COST: u64 = 120;
/// Additional forwarding latency when the access is redirected to the
/// other instance (§7.4) — a posted transaction over the interconnect.
const FORWARD_COST: u64 = 900;

/// The platform's device registry.
///
/// # Examples
///
/// ```
/// use stramash_kernel::device::DeviceRegistry;
/// use stramash_mem::PhysAddr;
/// use stramash_sim::DomainId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut devices = DeviceRegistry::paper_platform();
/// let nic = PhysAddr::new(3 << 30); // x86-owned, in the PCI hole
/// devices.mmio_write(DomainId::X86, nic, 0x1)?;
/// // §7.4: the Arm instance's access is redirected to the x86 one.
/// let (value, cost) = devices.mmio_read(DomainId::ARM, nic)?;
/// assert_eq!(value, 0x1);
/// assert!(cost.raw() > 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: Vec<Device>,
    /// Device register backing state (registers really hold values).
    regs: IntMap<u64, u64>,
    /// Accesses forwarded across instances, per requesting domain.
    forwarded: [u64; 2],
    next_id: u32,
}

impl DeviceRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// The paper platform's device set: the NIC and IPI bridge attached
    /// to the x86 instance, a console on the Arm instance, with MMIO
    /// windows in the 3–4 GB hole of the Figure 4 layout.
    #[must_use]
    pub fn paper_platform() -> Self {
        let mut r = DeviceRegistry::new();
        let hole = 3u64 << 30;
        r.register(DeviceClass::Nic, DomainId::X86, PhysAddr::new(hole), 64 << 10)
            .expect("fresh registry");
        r.register(DeviceClass::IpiBridge, DomainId::X86, PhysAddr::new(hole + (1 << 20)), 4096)
            .expect("fresh registry");
        r.register(DeviceClass::Block, DomainId::X86, PhysAddr::new(hole + (2 << 20)), 16 << 10)
            .expect("fresh registry");
        r.register(DeviceClass::Console, DomainId::ARM, PhysAddr::new(hole + (3 << 20)), 4096)
            .expect("fresh registry");
        r
    }

    /// Registers a device.
    ///
    /// # Errors
    ///
    /// [`DeviceError::WindowOverlap`] when windows collide.
    pub fn register(
        &mut self,
        class: DeviceClass,
        owner: DomainId,
        mmio_base: PhysAddr,
        mmio_len: u64,
    ) -> Result<DeviceId, DeviceError> {
        for d in &self.devices {
            if mmio_base.raw() < d.mmio_base.raw() + d.mmio_len
                && d.mmio_base.raw() < mmio_base.raw() + mmio_len
            {
                return Err(DeviceError::WindowOverlap);
            }
        }
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        self.devices.push(Device { id, class, owner, mmio_base, mmio_len });
        Ok(id)
    }

    /// All registered devices — "each kernel always knows about those"
    /// (§5: resources are discovered globally even when not provisioned).
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device mapping `addr`, if any.
    #[must_use]
    pub fn device_at(&self, addr: PhysAddr) -> Option<&Device> {
        self.devices.iter().find(|d| d.contains(addr))
    }

    /// Accesses by `domain` that were forwarded to the peer instance.
    #[must_use]
    pub fn forwarded_from(&self, domain: DomainId) -> u64 {
        self.forwarded[domain.index()]
    }

    /// Reads a device register as `from`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoDevice`] for unmapped addresses.
    pub fn mmio_read(&mut self, from: DomainId, addr: PhysAddr) -> Result<(u64, Cycles), DeviceError> {
        let owner = self.device_at(addr).ok_or(DeviceError::NoDevice(addr))?.owner;
        let cost = self.access_cost(from, owner);
        Ok((self.regs.get(&addr.raw()).copied().unwrap_or(0), cost))
    }

    /// Writes a device register as `from`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoDevice`] for unmapped addresses.
    pub fn mmio_write(
        &mut self,
        from: DomainId,
        addr: PhysAddr,
        value: u64,
    ) -> Result<Cycles, DeviceError> {
        let owner = self.device_at(addr).ok_or(DeviceError::NoDevice(addr))?.owner;
        let cost = self.access_cost(from, owner);
        self.regs.insert(addr.raw(), value);
        Ok(cost)
    }

    fn access_cost(&mut self, from: DomainId, owner: DomainId) -> Cycles {
        if from == owner {
            Cycles::new(LOCAL_MMIO_COST)
        } else {
            self.forwarded[from.index()] += 1;
            Cycles::new(LOCAL_MMIO_COST + FORWARD_COST)
        }
    }

    /// Serializes the registry's mutable state (register values in
    /// address order, forwarding counters) into a checkpoint section.
    /// The device list itself is platform configuration and is rebuilt,
    /// not restored.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4445_5653); // "DEVS"
        let mut addrs: Vec<u64> = self.regs.keys().copied().collect();
        addrs.sort_unstable();
        e.u64(addrs.len() as u64);
        for a in addrs {
            e.u64(a);
            e.u64(self.regs[&a]);
        }
        e.u64s(&self.forwarded);
    }

    /// Restores state written by [`DeviceRegistry::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4445_5653)?;
        let n = d.len()?;
        let mut regs = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let a = d.u64()?;
            regs.insert(a, d.u64()?);
        }
        self.regs = regs;
        self.forwarded = d
            .u64s()?
            .try_into()
            .map_err(|_| CheckpointError::Malformed("expected a per-domain pair"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_devices() {
        let r = DeviceRegistry::paper_platform();
        assert_eq!(r.devices().len(), 4);
        assert!(r.devices().iter().any(|d| d.class == DeviceClass::Nic));
        // Windows live in the 3–4 GB hole, outside every DRAM region.
        let layout = stramash_mem::PhysLayout::paper_default();
        for d in r.devices() {
            assert!(layout.region_of(d.mmio_base).is_none(), "{:?} must sit in the hole", d.class);
        }
    }

    #[test]
    fn registers_hold_values_for_both_domains() {
        let mut r = DeviceRegistry::paper_platform();
        let nic = PhysAddr::new(3 << 30);
        r.mmio_write(DomainId::X86, nic, 0x55).unwrap();
        // §7.4: the Arm instance lacks the NIC; its access is redirected
        // and sees the same register state.
        let (v, _) = r.mmio_read(DomainId::ARM, nic).unwrap();
        assert_eq!(v, 0x55);
    }

    #[test]
    fn remote_access_pays_forwarding() {
        let mut r = DeviceRegistry::paper_platform();
        let nic = PhysAddr::new(3 << 30);
        let local = r.mmio_write(DomainId::X86, nic, 1).unwrap();
        let remote = r.mmio_write(DomainId::ARM, nic, 2).unwrap();
        assert!(remote > local, "redirected access must cost more: {remote} vs {local}");
        assert_eq!(r.forwarded_from(DomainId::ARM), 1);
        assert_eq!(r.forwarded_from(DomainId::X86), 0);
    }

    #[test]
    fn unmapped_address_errors() {
        let mut r = DeviceRegistry::paper_platform();
        let err = r.mmio_read(DomainId::X86, PhysAddr::new(0x1000)).unwrap_err();
        assert!(matches!(err, DeviceError::NoDevice(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn window_overlap_rejected() {
        let mut r = DeviceRegistry::paper_platform();
        let err = r
            .register(DeviceClass::Block, DomainId::ARM, PhysAddr::new(3 << 30), 4096)
            .unwrap_err();
        assert_eq!(err, DeviceError::WindowOverlap);
        // Disjoint is fine.
        r.register(DeviceClass::Block, DomainId::ARM, PhysAddr::new((3u64 << 30) + (8 << 20)), 4096)
            .unwrap();
    }

    #[test]
    fn console_is_arm_owned() {
        let mut r = DeviceRegistry::paper_platform();
        let console = PhysAddr::new((3u64 << 30) + (3 << 20));
        let arm = r.mmio_write(DomainId::ARM, console, b'S' as u64).unwrap();
        let x86 = r.mmio_write(DomainId::X86, console, b'!' as u64).unwrap();
        assert!(x86 > arm);
    }
}
