//! The network-serving application of §9.2.8 (Figure 14).
//!
//! A functional in-simulator key-value store standing in for the
//! modified Redis server: the client lives on the x86 kernel, the server
//! thread is migrated to the Arm kernel, and every request crosses the
//! messaging layer (TCP vs SHM) while the server's data-structure
//! accesses run through the simulated memory system. The store supports
//! the eight redis-benchmark operations the figure reports.

use crate::target::TargetSystem;
use std::fmt;
use stramash_kernel::addr::VirtAddr;
use stramash_kernel::msg::{Message, MsgType};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_kernel::vma::VmaProt;
use stramash_sim::{Cycles, DomainId};

/// The redis-benchmark operations of Figure 14, in the figure's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// String read.
    Get,
    /// String write.
    Set,
    /// Push at the list head.
    Lpush,
    /// Push at the list tail.
    Rpush,
    /// Pop from the head.
    Lpop,
    /// Pop from the tail.
    Rpop,
    /// Set-insert with dedup.
    Sadd,
    /// Multi-key string write (5 keys per request).
    Mset,
}

impl KvOp {
    /// All eight, in figure order.
    pub const ALL: [KvOp; 8] = [
        KvOp::Get,
        KvOp::Set,
        KvOp::Lpush,
        KvOp::Rpush,
        KvOp::Lpop,
        KvOp::Rpop,
        KvOp::Sadd,
        KvOp::Mset,
    ];
}

impl fmt::Display for KvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KvOp::Get => "get",
            KvOp::Set => "set",
            KvOp::Lpush => "lpush",
            KvOp::Rpush => "rpush",
            KvOp::Lpop => "lpop",
            KvOp::Rpop => "rpop",
            KvOp::Sadd => "sadd",
            KvOp::Mset => "mset",
        };
        f.write_str(s)
    }
}

const BUCKETS: u64 = 256;
pub(crate) const ENTRY_HEADER: u64 = 24; // next, keyhash, len

/// The server's in-simulator data structures.
#[derive(Debug)]
pub struct KvServer {
    /// Hash buckets for strings (u64 VA pointers, 0 = empty).
    buckets: VirtAddr,
    /// Hash buckets for the set type.
    set_buckets: VirtAddr,
    /// Head pointer word of the global list.
    list_head: VirtAddr,
    /// Tail pointer word.
    list_tail: VirtAddr,
    heap_base: VirtAddr,
    heap_len: u64,
    heap_cursor: u64,
}

impl KvServer {
    /// Allocates the store's structures in the process's address space
    /// (they will live in whichever kernel's memory faults them in).
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn setup(sys: &mut TargetSystem, pid: Pid, heap_len: u64) -> Result<Self, OsError> {
        let buckets = sys.mmap(pid, BUCKETS * 8, VmaProt::rw())?;
        let set_buckets = sys.mmap(pid, BUCKETS * 8, VmaProt::rw())?;
        let words = sys.mmap(pid, 4096, VmaProt::rw())?;
        let heap_base = sys.mmap(pid, heap_len, VmaProt::rw())?;
        // Zero the bucket arrays and list words (first touch).
        for b in 0..BUCKETS {
            sys.store_u64(pid, buckets.offset(b * 8), 0)?;
            sys.store_u64(pid, set_buckets.offset(b * 8), 0)?;
        }
        sys.store_u64(pid, words, 0)?;
        sys.store_u64(pid, words.offset(8), 0)?;
        Ok(KvServer {
            buckets,
            set_buckets,
            list_head: words,
            list_tail: words.offset(8),
            heap_base,
            heap_len,
            heap_cursor: 0,
        })
    }

    fn alloc(&mut self, size: u64) -> VirtAddr {
        let aligned = size.div_ceil(64) * 64;
        assert!(
            self.heap_cursor + aligned <= self.heap_len,
            "KV heap exhausted — enlarge heap_len"
        );
        let va = self.heap_base.offset(self.heap_cursor);
        self.heap_cursor += aligned;
        va
    }

    /// Executes one operation server-side, returning the response
    /// payload length.
    ///
    /// # Errors
    ///
    /// OS errors from the store's memory traffic.
    pub fn process(
        &mut self,
        sys: &mut TargetSystem,
        pid: Pid,
        op: KvOp,
        key_hash: u64,
        payload: &[u8],
    ) -> Result<u32, OsError> {
        match op {
            KvOp::Set => {
                self.insert_string(sys, pid, key_hash, payload)?;
                Ok(8)
            }
            KvOp::Mset => {
                for k in 0..5 {
                    self.insert_string(sys, pid, key_hash.wrapping_add(k * 7919), payload)?;
                }
                Ok(8)
            }
            KvOp::Get => {
                let found = self.lookup_string(sys, pid, key_hash)?;
                Ok(found.map_or(8, |len| len as u32))
            }
            KvOp::Lpush | KvOp::Rpush => {
                let node = self.alloc(ENTRY_HEADER + payload.len() as u64);
                sys.write_mem(pid, node.offset(ENTRY_HEADER), payload)?;
                sys.store_u64(pid, node.offset(16), payload.len() as u64)?;
                if op == KvOp::Lpush {
                    let head = sys.load_u64(pid, self.list_head)?;
                    sys.store_u64(pid, node, head)?;
                    sys.store_u64(pid, node.offset(8), 0)?;
                    if head != 0 {
                        sys.store_u64(pid, VirtAddr::new(head).offset(8), node.raw())?;
                    } else {
                        sys.store_u64(pid, self.list_tail, node.raw())?;
                    }
                    sys.store_u64(pid, self.list_head, node.raw())?;
                } else {
                    let tail = sys.load_u64(pid, self.list_tail)?;
                    sys.store_u64(pid, node, 0)?;
                    sys.store_u64(pid, node.offset(8), tail)?;
                    if tail != 0 {
                        sys.store_u64(pid, VirtAddr::new(tail), node.raw())?;
                    } else {
                        sys.store_u64(pid, self.list_head, node.raw())?;
                    }
                    sys.store_u64(pid, self.list_tail, node.raw())?;
                }
                {
                    let d = sys.current_domain(pid)?;
                    sys.base_mut().retire(d, 40);
                }
                Ok(8)
            }
            KvOp::Lpop | KvOp::Rpop => {
                let node = if op == KvOp::Lpop {
                    sys.load_u64(pid, self.list_head)?
                } else {
                    sys.load_u64(pid, self.list_tail)?
                };
                if node == 0 {
                    return Ok(8); // empty list
                }
                let node_va = VirtAddr::new(node);
                let next = sys.load_u64(pid, node_va)?;
                let prev = sys.load_u64(pid, node_va.offset(8))?;
                if op == KvOp::Lpop {
                    sys.store_u64(pid, self.list_head, next)?;
                    if next != 0 {
                        sys.store_u64(pid, VirtAddr::new(next).offset(8), 0)?;
                    } else {
                        sys.store_u64(pid, self.list_tail, 0)?;
                    }
                } else {
                    sys.store_u64(pid, self.list_tail, prev)?;
                    if prev != 0 {
                        sys.store_u64(pid, VirtAddr::new(prev), 0)?;
                    } else {
                        sys.store_u64(pid, self.list_head, 0)?;
                    }
                }
                let len = sys.load_u64(pid, node_va.offset(16))?;
                let mut out = vec![0u8; len as usize];
                sys.read_mem(pid, node_va.offset(ENTRY_HEADER), &mut out)?;
                {
                    let d = sys.current_domain(pid)?;
                    sys.base_mut().retire(d, 40);
                }
                Ok(len as u32)
            }
            KvOp::Sadd => {
                // Dedup insert keyed by hash.
                let bucket = self.set_buckets.offset((key_hash % BUCKETS) * 8);
                let mut cur = sys.load_u64(pid, bucket)?;
                while cur != 0 {
                    let h = sys.load_u64(pid, VirtAddr::new(cur).offset(8))?;
                    if h == key_hash {
                        return Ok(8); // already a member
                    }
                    cur = sys.load_u64(pid, VirtAddr::new(cur))?;
                }
                let entry = self.alloc(ENTRY_HEADER + payload.len() as u64);
                sys.write_mem(pid, entry.offset(ENTRY_HEADER), payload)?;
                sys.store_u64(pid, entry.offset(8), key_hash)?;
                sys.store_u64(pid, entry.offset(16), payload.len() as u64)?;
                let head = sys.load_u64(pid, bucket)?;
                sys.store_u64(pid, entry, head)?;
                sys.store_u64(pid, bucket, entry.raw())?;
                {
                    let d = sys.current_domain(pid)?;
                    sys.base_mut().retire(d, 60);
                }
                Ok(8)
            }
        }
    }

    fn insert_string(
        &mut self,
        sys: &mut TargetSystem,
        pid: Pid,
        key_hash: u64,
        payload: &[u8],
    ) -> Result<(), OsError> {
        let bucket = self.buckets.offset((key_hash % BUCKETS) * 8);
        // Update in place when the key exists.
        let mut cur = sys.load_u64(pid, bucket)?;
        while cur != 0 {
            let h = sys.load_u64(pid, VirtAddr::new(cur).offset(8))?;
            if h == key_hash {
                sys.write_mem(pid, VirtAddr::new(cur).offset(ENTRY_HEADER), payload)?;
                return Ok(());
            }
            cur = sys.load_u64(pid, VirtAddr::new(cur))?;
        }
        let entry = self.alloc(ENTRY_HEADER + payload.len() as u64);
        sys.write_mem(pid, entry.offset(ENTRY_HEADER), payload)?;
        sys.store_u64(pid, entry.offset(8), key_hash)?;
        sys.store_u64(pid, entry.offset(16), payload.len() as u64)?;
        let head = sys.load_u64(pid, bucket)?;
        sys.store_u64(pid, entry, head)?;
        sys.store_u64(pid, bucket, entry.raw())?;
        {
            let d = sys.current_domain(pid)?;
            sys.base_mut().retire(d, 60);
        }
        Ok(())
    }

    /// Serializes the server's pointer state into a checkpoint section.
    /// The stored data itself lives in simulated memory and is covered
    /// by the system checkpoint; only the VA roots are written here.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4b56_5356); // "KVSV"
        e.u64(self.buckets.raw());
        e.u64(self.set_buckets.raw());
        e.u64(self.list_head.raw());
        e.u64(self.list_tail.raw());
        e.u64(self.heap_base.raw());
        e.u64(self.heap_len);
        e.u64(self.heap_cursor);
    }

    /// Restores a server written by [`KvServer::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<Self, stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x4b56_5356)?;
        Ok(KvServer {
            buckets: VirtAddr::new(d.u64()?),
            set_buckets: VirtAddr::new(d.u64()?),
            list_head: VirtAddr::new(d.u64()?),
            list_tail: VirtAddr::new(d.u64()?),
            heap_base: VirtAddr::new(d.u64()?),
            heap_len: d.u64()?,
            heap_cursor: d.u64()?,
        })
    }

    /// String lookup by key hash, returning the payload length if found.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn lookup_string(
        &self,
        sys: &mut TargetSystem,
        pid: Pid,
        key_hash: u64,
    ) -> Result<Option<u64>, OsError> {
        Ok(self.fetch_string(sys, pid, key_hash)?.map(|v| v.len() as u64))
    }

    /// String lookup returning the stored payload bytes (the response
    /// body a GET would ship back).
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn fetch_string(
        &self,
        sys: &mut TargetSystem,
        pid: Pid,
        key_hash: u64,
    ) -> Result<Option<Vec<u8>>, OsError> {
        let bucket = self.buckets.offset((key_hash % BUCKETS) * 8);
        let mut cur = sys.load_u64(pid, bucket)?;
        while cur != 0 {
            let h = sys.load_u64(pid, VirtAddr::new(cur).offset(8))?;
            if h == key_hash {
                let len = sys.load_u64(pid, VirtAddr::new(cur).offset(16))?;
                let mut buf = vec![0u8; len as usize];
                sys.read_mem(pid, VirtAddr::new(cur).offset(ENTRY_HEADER), &mut buf)?;
                return Ok(Some(buf));
            }
            cur = sys.load_u64(pid, VirtAddr::new(cur))?;
        }
        Ok(None)
    }
}

/// A hash-partitioned store: one [`KvServer`] shard per worker process,
/// each living in its owner's address space (and therefore in whichever
/// kernel's memory that worker faulted it into). Requests route by
/// `key_hash % shards`, so a key's shard — and the ISA domain serving
/// it — is a pure function of the key.
#[derive(Debug)]
pub struct ShardedKv {
    shards: Vec<KvServer>,
}

impl ShardedKv {
    /// Builds one shard per worker pid, each with `heap_per_shard`
    /// bytes of value heap in that worker's address space.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn setup(
        sys: &mut TargetSystem,
        workers: &[Pid],
        heap_per_shard: u64,
    ) -> Result<Self, OsError> {
        let mut shards = Vec::with_capacity(workers.len());
        for &pid in workers {
            shards.push(KvServer::setup(sys, pid, heap_per_shard)?);
        }
        Ok(ShardedKv { shards })
    }

    /// Number of shards (== workers).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `key_hash`.
    #[must_use]
    pub fn shard_of(&self, key_hash: u64) -> usize {
        (key_hash % self.shards.len() as u64) as usize
    }

    /// Executes one operation on the owning shard, *as* its worker
    /// process, returning `(shard, response payload length)`.
    ///
    /// # Errors
    ///
    /// OS errors from the shard's memory traffic.
    pub fn process(
        &mut self,
        sys: &mut TargetSystem,
        workers: &[Pid],
        op: KvOp,
        key_hash: u64,
        payload: &[u8],
    ) -> Result<(usize, u32), OsError> {
        let shard = self.shard_of(key_hash);
        let len = self.shards[shard].process(sys, workers[shard], op, key_hash, payload)?;
        Ok((shard, len))
    }

    /// Read access to one shard (inspection and tests).
    #[must_use]
    pub fn shard(&self, idx: usize) -> &KvServer {
        &self.shards[idx]
    }
}

/// Result of one Figure 14 run.
#[derive(Debug, Clone, Copy)]
pub struct KvRunResult {
    /// The operation exercised.
    pub op: KvOp,
    /// Requests served.
    pub requests: u64,
    /// Total cycles across both domains.
    pub total: Cycles,
    /// Average cycles per request.
    pub per_request: f64,
    /// FNV-1a fingerprint of every response length and every stored
    /// string payload — the *functional* result of the run. Fault
    /// injection may change `total` but must never change this.
    pub checksum: u64,
}

pub(crate) fn fnv(acc: u64, byte: u8) -> u64 {
    (acc ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
}

/// Runs the Figure 14 experiment for one operation: `requests` requests
/// with `payload` bytes each (the paper uses 10 K requests of 1024 B).
///
/// # Errors
///
/// OS errors.
pub fn run_kv(
    sys: &mut TargetSystem,
    op: KvOp,
    requests: u64,
    payload_len: u32,
) -> Result<KvRunResult, OsError> {
    let mut run = KvRun::setup(sys, op, requests, payload_len)?;
    for r in 0..requests {
        run.request(sys, r)?;
    }
    run.sweep(sys)
}

/// One Figure 14 run between requests: the server process, its store
/// and domain, and the running fingerprint. [`run_kv`] serves every
/// request in one loop; the crash-recovery supervisor
/// ([`crate::recovery`]) serves one request per step.
#[derive(Debug)]
pub(crate) struct KvRun {
    pub(crate) pid: Pid,
    pub(crate) server: KvServer,
    pub(crate) op: KvOp,
    pub(crate) requests: u64,
    pub(crate) payload: Vec<u8>,
    pub(crate) server_domain: DomainId,
    pub(crate) checksum: u64,
    /// The runtime when the timed requests began.
    pub(crate) before: Cycles,
}

impl KvRun {
    /// Spawns the server on x86 with a heap sized for the worst case
    /// (mset: 5 entries per request), migrates it to the remote kernel
    /// "during the processing of the time_event" (§9.2.8), and
    /// pre-populates the store for the read-side operations.
    pub(crate) fn setup(
        sys: &mut TargetSystem,
        op: KvOp,
        requests: u64,
        payload_len: u32,
    ) -> Result<Self, OsError> {
        let pid = sys.spawn(DomainId::X86)?;
        let heap = (requests * 6 + 1024) * (ENTRY_HEADER + u64::from(payload_len) + 64);
        let mut server = KvServer::setup(sys, pid, heap)?;
        let payload = vec![0xabu8; payload_len as usize];
        if sys.kind().migrates() {
            sys.migrate(pid, DomainId::ARM)?;
        }
        match op {
            KvOp::Get => {
                for r in 0..requests {
                    server.insert_string(sys, pid, key_of(r), &payload)?;
                }
            }
            KvOp::Lpop | KvOp::Rpop => {
                for _ in 0..requests {
                    server.process(sys, pid, KvOp::Lpush, 0, &payload)?;
                }
            }
            _ => {}
        }
        Ok(KvRun {
            pid,
            server,
            op,
            requests,
            payload,
            server_domain: sys.current_domain(pid)?,
            checksum: 0xcbf2_9ce4_8422_2325,
            before: sys.runtime(),
        })
    }

    /// Serves request `r`: the client's request crosses the messaging
    /// layer, the server processes it, its response length is folded
    /// into the fingerprint, and the response crosses back.
    pub(crate) fn request(&mut self, sys: &mut TargetSystem, r: u64) -> Result<(), OsError> {
        let req = Message { ty: MsgType::KvRequest, payload: self.payload.len() as u32 };
        Self::deliver(sys, DomainId::X86, self.server_domain, req);
        let resp_len = self.server.process(sys, self.pid, self.op, key_of(r), &self.payload)?;
        for b in resp_len.to_le_bytes() {
            self.checksum = fnv(self.checksum, b);
        }
        let resp = Message { ty: MsgType::KvResponse, payload: resp_len };
        Self::deliver(sys, self.server_domain, DomainId::X86, resp);
        Ok(())
    }

    /// Sends `m` from `from` and receives it on `to`, charging each side.
    fn deliver(sys: &mut TargetSystem, from: DomainId, to: DomainId, m: Message) {
        let base = sys.base_mut();
        let send_c = base.msg.send(&mut base.mem, &mut base.ipi, from, m);
        let recv_c = base.msg.receive(&mut base.mem, to, m);
        base.charge(from, send_c);
        base.charge(to, recv_c);
    }

    /// Ends the run. The functional sweep after the timed total folds
    /// every stored string payload into the fingerprint, so silent data
    /// corruption — not just wrong response lengths — is caught.
    pub(crate) fn sweep(&self, sys: &mut TargetSystem) -> Result<KvRunResult, OsError> {
        let total = sys.runtime() - self.before;
        let mut checksum = self.checksum;
        for r in 0..self.requests {
            if let Some(stored) = self.server.fetch_string(sys, self.pid, key_of(r))? {
                for b in stored {
                    checksum = fnv(checksum, b);
                }
            }
        }
        Ok(KvRunResult {
            op: self.op,
            requests: self.requests,
            total,
            per_request: total.raw() as f64 / self.requests as f64,
            checksum,
        })
    }
}

pub(crate) fn key_of(r: u64) -> u64 {
    r.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SystemKind;
    use stramash_sim::HardwareModel;

    fn local_setup() -> (TargetSystem, Pid, KvServer) {
        let mut sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let server = KvServer::setup(&mut sys, pid, 1 << 20).unwrap();
        (sys, pid, server)
    }

    #[test]
    fn set_then_get() {
        let (mut sys, pid, mut server) = local_setup();
        server.process(&mut sys, pid, KvOp::Set, 42, b"hello-kv").unwrap();
        let len = server.lookup_string(&mut sys, pid, 42).unwrap();
        assert_eq!(len, Some(8));
        assert_eq!(server.lookup_string(&mut sys, pid, 43).unwrap(), None);
        // Overwrite keeps a single entry.
        server.process(&mut sys, pid, KvOp::Set, 42, b"world-kv").unwrap();
        assert_eq!(server.lookup_string(&mut sys, pid, 42).unwrap(), Some(8));
    }

    #[test]
    fn list_push_pop_fifo_lifo() {
        let (mut sys, pid, mut server) = local_setup();
        server.process(&mut sys, pid, KvOp::Rpush, 0, b"aaaa").unwrap();
        server.process(&mut sys, pid, KvOp::Rpush, 0, b"bbbb").unwrap();
        server.process(&mut sys, pid, KvOp::Lpush, 0, b"cccc").unwrap();
        // List is c, a, b.
        assert_eq!(server.process(&mut sys, pid, KvOp::Lpop, 0, &[]).unwrap(), 4);
        assert_eq!(server.process(&mut sys, pid, KvOp::Rpop, 0, &[]).unwrap(), 4);
        assert_eq!(server.process(&mut sys, pid, KvOp::Lpop, 0, &[]).unwrap(), 4);
        // Now empty.
        assert_eq!(server.process(&mut sys, pid, KvOp::Lpop, 0, &[]).unwrap(), 8);
    }

    #[test]
    fn sadd_dedups() {
        let (mut sys, pid, mut server) = local_setup();
        server.process(&mut sys, pid, KvOp::Sadd, 7, b"member").unwrap();
        let cursor_after_first = server.heap_cursor;
        server.process(&mut sys, pid, KvOp::Sadd, 7, b"member").unwrap();
        assert_eq!(server.heap_cursor, cursor_after_first, "duplicate sadd must not allocate");
        server.process(&mut sys, pid, KvOp::Sadd, 8, b"member").unwrap();
        assert!(server.heap_cursor > cursor_after_first);
    }

    #[test]
    fn payload_integrity_across_migration() {
        // Values written by the server on the Arm kernel must read back
        // byte-for-byte after migrating home — on every design.
        for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
            let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
            let pid = sys.spawn(DomainId::X86).unwrap();
            let mut server = KvServer::setup(&mut sys, pid, 1 << 20).unwrap();
            sys.migrate(pid, DomainId::ARM).unwrap();
            let payload: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
            server.process(&mut sys, pid, KvOp::Set, 99, &payload).unwrap();
            sys.migrate(pid, DomainId::X86).unwrap();
            let got = server.fetch_string(&mut sys, pid, 99).unwrap().unwrap();
            assert_eq!(got, payload, "{kind:?}: payload corrupted across kernels");
        }
    }

    #[test]
    fn kv_experiment_shm_beats_tcp() {
        // The Figure 14 headline: SHM messaging is far faster than TCP.
        let mut tcp = TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared).unwrap();
        let t = run_kv(&mut tcp, KvOp::Get, 50, 1024).unwrap();
        let mut shm = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let s = run_kv(&mut shm, KvOp::Get, 50, 1024).unwrap();
        let speedup = t.per_request / s.per_request;
        assert!(speedup > 2.0, "SHM speedup over TCP was only {speedup:.2}×");
    }

    #[test]
    fn kv_experiment_stramash_at_least_matches_shm() {
        let mut shm = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let s = run_kv(&mut shm, KvOp::Set, 50, 1024).unwrap();
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let f = run_kv(&mut stra, KvOp::Set, 50, 1024).unwrap();
        assert!(
            f.per_request <= s.per_request,
            "stramash {} vs popcorn-shm {}",
            f.per_request,
            s.per_request
        );
    }

    #[test]
    fn sharded_store_routes_by_key_and_isolates_shards() {
        let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let pids: Vec<Pid> = (0..4).map(|_| sys.spawn(DomainId::X86).unwrap()).collect();
        sys.migrate(pids[1], DomainId::ARM).unwrap();
        sys.migrate(pids[3], DomainId::ARM).unwrap();
        let mut store = ShardedKv::setup(&mut sys, &pids, 1 << 18).unwrap();
        assert_eq!(store.shards(), 4);
        // Writes land on the shard the key hashes to; reads through the
        // sharded front door find them, direct probes of other shards
        // don't.
        for key in [3u64, 10, 17, 1000] {
            let (shard, _) = store.process(&mut sys, &pids, KvOp::Set, key, b"v").unwrap();
            assert_eq!(shard, store.shard_of(key));
            let (shard2, len) = store.process(&mut sys, &pids, KvOp::Get, key, &[]).unwrap();
            assert_eq!((shard2, len), (shard, 1));
            for (other, &pid) in pids.iter().enumerate() {
                if other != shard {
                    let miss = store.shard(other).lookup_string(&mut sys, pid, key).unwrap();
                    assert_eq!(miss, None, "key {key} leaked into shard {other}");
                }
            }
        }
    }

    #[test]
    fn ops_display_lowercase() {
        assert_eq!(KvOp::Lpush.to_string(), "lpush");
        assert_eq!(KvOp::Mset.to_string(), "mset");
        assert_eq!(KvOp::ALL.len(), 8);
    }
}
