//! Application hosts for the two paper use cases (§4.3) and their
//! host-only baselines.
//!
//! * [`PsWorker`]/[`PsServer`] — the **host-based AllReduce baseline**:
//!   a parameter server aggregates worker arrays in software; switches
//!   only forward. E1 compares this against the in-network AllReduce.
//! * [`KvsClient`]/[`KvsServer`] — the **KVS application** of Fig. 5.
//!   The same pair runs in both modes: with the compiled `query` kernel
//!   on the switch (in-network cache) or with a plain forwarding switch
//!   (server-only baseline) — E2's comparison.

use crate::control::ControlPlane;
use c3::wire::get_u16;
use c3::{Chunk, HostId, IdMap, KernelId, NodeId, ScalarType, SwitchId, Value, Window};
use ncp::codec::encode_window;
use ncp::reliable::{ReliableConfig, Sender as RelSender};
use ncp::{NcpPacket, HEADER_LEN};
use netsim::{HostApp, HostCtx, Packet, Time};
use std::any::Any;
use std::collections::HashMap;

/// Timer token reserved for the KVS client's NCP-R retransmission
/// clock (schedule timers use small indices, so the top bit is free).
const KVS_RELIABLE_TIMER: u64 = 1 << 63;

// ---------------------------------------------------------------------
// Host-based AllReduce (parameter-server baseline)
// ---------------------------------------------------------------------

/// Wire format of the PS baseline (plain, non-NCP packets):
/// `[magic u16 = 0x5053][worker u16][seq u32][n u16][i32 × n]`.
const PS_MAGIC: u16 = 0x5053;

fn ps_encode(worker: u16, seq: u32, vals: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + vals.len() * 4);
    out.extend_from_slice(&PS_MAGIC.to_be_bytes());
    out.extend_from_slice(&worker.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(vals.len() as u16).to_be_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

fn ps_decode(bytes: &[u8]) -> Option<(u16, u32, Vec<i32>)> {
    use c3::wire::{get_u16, get_u32};
    if bytes.len() < 10 || get_u16(bytes, 0) != PS_MAGIC {
        return None;
    }
    let worker = get_u16(bytes, 2);
    let seq = get_u32(bytes, 4);
    let n = get_u16(bytes, 8) as usize;
    if bytes.len() < 10 + n * 4 {
        return None;
    }
    let vals = (0..n).map(|i| get_u32(bytes, 10 + i * 4) as i32).collect();
    Some((worker, seq, vals))
}

/// A parameter-server worker: sends its array in window-sized slots to
/// the server, collects the aggregated slots back.
pub struct PsWorker {
    /// The server node.
    pub server: NodeId,
    /// This worker's contribution.
    pub data: Vec<i32>,
    /// Elements per slot (matches the INC window length for fairness).
    pub slot: usize,
    /// The aggregated result, filled as slots arrive.
    pub result: Vec<i32>,
    slots_done: usize,
    /// Time the full result arrived.
    pub done_at: Option<Time>,
}

impl PsWorker {
    /// Creates a worker.
    pub fn new(server: NodeId, data: Vec<i32>, slot: usize) -> Self {
        let n = data.len();
        PsWorker {
            server,
            data,
            slot,
            result: vec![0; n],
            slots_done: 0,
            done_at: None,
        }
    }
}

impl HostApp for PsWorker {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for (seq, chunk) in self.data.chunks(self.slot).enumerate() {
            ctx.send(self.server, ps_encode(ctx.host.0, seq as u32, chunk));
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let Some((_, seq, vals)) = ps_decode(&pkt.payload) else {
            return;
        };
        let base = seq as usize * self.slot;
        for (i, v) in vals.iter().enumerate() {
            if base + i < self.result.len() {
                self.result[base + i] = *v;
            }
        }
        self.slots_done += 1;
        if self.slots_done == self.data.len().div_ceil(self.slot) && self.done_at.is_none() {
            self.done_at = Some(ctx.now);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The parameter server: aggregates slots from `nworkers` workers and
/// broadcasts each completed slot back.
pub struct PsServer {
    /// Expected workers.
    pub nworkers: usize,
    /// The worker nodes (result fan-out).
    pub workers: Vec<NodeId>,
    slots: HashMap<u32, (Vec<i32>, usize)>,
    /// Slots aggregated and broadcast.
    pub completed: usize,
}

impl PsServer {
    /// Creates a server for the given worker set.
    pub fn new(workers: Vec<NodeId>) -> Self {
        PsServer {
            nworkers: workers.len(),
            workers,
            slots: HashMap::new(),
            completed: 0,
        }
    }
}

impl HostApp for PsServer {
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let Some((_, seq, vals)) = ps_decode(&pkt.payload) else {
            return;
        };
        let entry = self
            .slots
            .entry(seq)
            .or_insert_with(|| (vec![0; vals.len()], 0));
        for (i, v) in vals.iter().enumerate() {
            entry.0[i] = entry.0[i].wrapping_add(*v);
        }
        entry.1 += 1;
        if entry.1 == self.nworkers {
            let (sum, _) = self.slots.remove(&seq).expect("entry exists");
            self.completed += 1;
            for w in &self.workers {
                ctx.send(*w, ps_encode(0, seq, &sum));
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// KVS client and server (Fig. 5)
// ---------------------------------------------------------------------

/// One client operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvsOp {
    /// Issue time.
    pub at: Time,
    /// The key.
    pub key: u64,
    /// `true` = PUT (the value written is derived from the key).
    pub put: bool,
}

/// Result of one completed operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvsSample {
    /// The key.
    pub key: u64,
    /// PUT?
    pub put: bool,
    /// Issue → response latency.
    pub latency: Time,
    /// Served by the in-network cache (response reflected by the
    /// switch rather than generated by the server)?
    pub from_cache: bool,
}

/// A KVS client issuing a fixed schedule of GET/PUT operations encoded
/// as `query` windows (the kernel of Fig. 5).
///
/// `schedule` must be sorted by `at`. Operation `i` goes out as window
/// `seq = i`, and only the next operation's timer is pending at any
/// time: each one arms its successor's. Operations that share one `at`
/// therefore issue in schedule order, one timer event each; an
/// out-of-order `at` issues as soon as its predecessor has.
pub struct KvsClient {
    /// The storage server node.
    pub server: NodeId,
    /// The server's host id (to distinguish cache hits).
    pub server_host: HostId,
    /// The `query` kernel id.
    pub kernel: u16,
    /// Value words per item (must match the program's Cache columns).
    pub val_words: usize,
    /// Operations to issue, sorted by `at`.
    pub schedule: Vec<KvsOp>,
    /// Completed operations.
    pub samples: Vec<KvsSample>,
    /// Issue time of each unanswered operation, indexed by `seq`.
    issued: Vec<Option<Time>>,
    outstanding: usize,
    /// The query frame's chunks, rewritten for each operation.
    query: Vec<Chunk>,
    /// Responses whose value didn't match the expected pattern.
    pub corrupt: u64,
    /// NCP-R sender (None = fire-and-forget, the pre-NCP-R behaviour).
    reliable: Option<RelSender>,
    /// Earliest armed RTO timer.
    armed: Option<Time>,
}

impl KvsClient {
    /// Creates a client.
    pub fn new(
        server: NodeId,
        server_host: HostId,
        kernel: u16,
        val_words: usize,
        schedule: Vec<KvsOp>,
    ) -> Self {
        KvsClient {
            server,
            server_host,
            kernel,
            val_words,
            schedule,
            samples: Vec::new(),
            issued: Vec::new(),
            outstanding: 0,
            query: Vec::new(),
            corrupt: 0,
            reliable: None,
            armed: None,
        }
    }

    /// Enables NCP-R retransmission for queries: unanswered operations
    /// are re-sent on RTO. Responses double as ACKs (every query
    /// produces a same-`seq` reply), and queries are idempotent
    /// server-side, so no replay filter is needed.
    pub fn enable_retransmit(&mut self, cfg: ReliableConfig) -> &mut Self {
        self.reliable = Some(RelSender::new(cfg));
        self
    }

    /// NCP-R retransmissions performed (0 when disabled).
    pub fn retransmits(&self) -> u64 {
        self.reliable.as_ref().map_or(0, |s| s.stats().retransmits)
    }

    /// Queries still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Drives the NCP-R sender: re-sends due queries, re-arms the RTO
    /// timer at the earliest remaining deadline.
    fn pump(&mut self, ctx: &mut HostCtx) {
        let Some(s) = &mut self.reliable else { return };
        let (due, next) = s.poll(ctx.now);
        if let Some(deadline) = next {
            if self.armed.is_none_or(|t| deadline < t) {
                self.armed = Some(deadline);
                ctx.set_timer(deadline.saturating_sub(ctx.now).max(1), KVS_RELIABLE_TIMER);
            }
        }
        for (_, seq) in due {
            if self.issued.get(seq as usize).is_some_and(Option::is_some) {
                self.send_query(ctx, seq);
            }
        }
    }

    /// Encodes operation `seq`'s query and sends it to the server.
    fn send_query(&mut self, ctx: &mut HostCtx, seq: u32) {
        let op = self.schedule[seq as usize];
        let val = (0..self.val_words).map(|i| {
            if op.put {
                Self::value_word(op.key, i)
            } else {
                0
            }
        });
        let frame = encode_query(
            &mut self.query,
            self.kernel,
            seq,
            ctx.host,
            op.key,
            val,
            op.put,
        );
        ctx.send(self.server, frame);
    }

    /// The deterministic value pattern for a key (verifiable end to
    /// end).
    pub fn value_for(key: u64, val_words: usize) -> Vec<u32> {
        (0..val_words).map(|i| Self::value_word(key, i)).collect()
    }

    /// Word `i` of [`KvsClient::value_for`]`(key, ..)`.
    fn value_word(key: u64, i: usize) -> u32 {
        key.wrapping_mul(2654435761).wrapping_add(i as u64) as u32
    }

    /// Does the value chunk `val` hold `key`'s value pattern?
    fn is_value_of(&self, val: &[u8], key: u64) -> bool {
        (0..self.val_words)
            .all(|i| val.get(i * 4..i * 4 + 4) == Some(&Self::value_word(key, i).to_be_bytes()[..]))
    }

    /// Mean latency of completed operations.
    pub fn mean_latency(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.latency as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Fraction of GETs served by the cache.
    pub fn hit_rate(&self) -> f64 {
        let gets: Vec<_> = self.samples.iter().filter(|s| !s.put).collect();
        if gets.is_empty() {
            return 0.0;
        }
        gets.iter().filter(|s| s.from_cache).count() as f64 / gets.len() as f64
    }
}

impl HostApp for KvsClient {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.issued = vec![None; self.schedule.len()];
        if let Some(first) = self.schedule.first() {
            ctx.set_timer(first.at, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        if token == KVS_RELIABLE_TIMER {
            self.armed = None;
            self.pump(ctx);
            return;
        }
        let i = token as usize;
        if let Some(next) = self.schedule.get(i + 1) {
            ctx.set_timer(next.at.saturating_sub(ctx.now), token + 1);
        }
        let seq = i as u32;
        self.issued[i] = Some(ctx.now);
        self.outstanding += 1;
        let send_now = match &mut self.reliable {
            Some(s) => s.track(self.kernel, seq, ctx.now),
            None => true,
        };
        if send_now {
            self.send_query(ctx, seq);
        }
        if self.reliable.is_some() {
            self.pump(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let Some(resp) = QueryFrame::parse(&pkt.payload) else {
            return;
        };
        // On a shared fabric other tenants' broadcasts reach this host
        // too; their seq numbers may collide with outstanding queries.
        if resp.kernel != self.kernel {
            return;
        }
        let seq = resp.seq;
        if let Some(s) = &mut self.reliable {
            // The response is the ACK; duplicates fall out at the
            // `issued` lookup below.
            if s.on_ack(self.kernel, seq) {
                self.pump(ctx);
            }
        }
        let Some(issued) = self.issued.get_mut(seq as usize).and_then(Option::take) else {
            return;
        };
        self.outstanding -= 1;
        let op = self.schedule[seq as usize];
        // Cache hits are reflections of the client's own window; server
        // responses carry the server as sender.
        let from_cache = resp.sender != self.server_host;
        if !op.put && !self.is_value_of(resp.val, op.key) {
            self.corrupt += 1;
        }
        self.samples.push(KvsSample {
            key: op.key,
            put: op.put,
            latency: ctx.now - issued,
            from_cache,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Bytes per NCP chunk descriptor: `(offset u32, len u16)`, after the
/// fixed header (see `ncp::wire`).
const CHUNK_DESC_LEN: usize = 6;

/// A `query(key, val, flag)` frame read in place. The hosts slice the
/// three chunks out of the packet rather than decode it into a window:
/// a decode copies each chunk into a buffer the codec wants aligned,
/// and allocates again on every frame for a buffer it failed to align.
struct QueryFrame<'a> {
    kernel: u16,
    seq: u32,
    sender: HostId,
    key: u64,
    val: &'a [u8],
    flag: bool,
}

impl<'a> QueryFrame<'a> {
    /// `None` unless `bytes` is an NCP window of three chunks whose
    /// first holds at least the 8-byte key and whose last is not empty.
    fn parse(bytes: &'a [u8]) -> Option<Self> {
        // A checked packet holds every chunk its descriptors announce.
        let p = NcpPacket::new_checked(bytes).ok()?;
        let len = |i: usize| get_u16(bytes, HEADER_LEN + i * CHUNK_DESC_LEN + 4) as usize;
        if p.nchunks() != 3 || len(0) < 8 || len(2) == 0 {
            return None;
        }
        let key_at = HEADER_LEN + 3 * CHUNK_DESC_LEN + p.ext_len() as usize;
        let val_at = key_at + len(0);
        let flag_at = val_at + len(1);
        let key = bytes[key_at..key_at + 8].try_into().expect("8 bytes");
        Some(QueryFrame {
            kernel: p.kernel(),
            seq: p.seq(),
            sender: HostId(p.sender()),
            key: u64::from_be_bytes(key),
            val: &bytes[val_at..flag_at],
            flag: bytes[flag_at] != 0,
        })
    }
}

/// Encodes the `query(key, val, flag)` window `seq` from `host`,
/// writing its three chunks into `chunks`, whose buffers it reuses. The
/// client's query, the server's GET reply and PUT ack (`flag` false)
/// and its cache update (`flag` true) are all this one frame.
fn encode_query(
    chunks: &mut Vec<Chunk>,
    kernel: u16,
    seq: u32,
    host: HostId,
    key: u64,
    val: impl Iterator<Item = u32>,
    flag: bool,
) -> Vec<u8> {
    chunks.resize_with(3, || Chunk {
        offset: 0,
        data: Vec::new(),
    });
    for c in chunks.iter_mut() {
        c.data.clear();
    }
    chunks[0].data.extend_from_slice(&key.to_be_bytes());
    chunks[1].data.extend(val.flat_map(u32::to_be_bytes));
    chunks[2].data.push(flag as u8);
    let w = Window {
        kernel: KernelId(kernel),
        seq,
        sender: host,
        from: NodeId::Host(host),
        last: false,
        chunks: std::mem::take(chunks),
        ext: Vec::new(),
    };
    let frame = encode_window(&w, 0);
    *chunks = w.chunks;
    frame
}

/// The storage server: owns all values, answers GET misses, applies
/// PUTs, and manages the switch cache through the control plane
/// (NetCache-style, paper §4.3).
pub struct KvsServer {
    /// The `query` kernel id.
    pub kernel: u16,
    /// Value words per item.
    pub val_words: usize,
    /// The switch hosting the cache (None = baseline, no cache
    /// management).
    pub cache_switch: Option<SwitchId>,
    /// Control-plane handle (None = baseline).
    pub control: Option<ControlPlane>,
    /// Cache capacity (slots).
    pub cache_slots: usize,
    /// GETs a key needs before the server caches it.
    pub hot_threshold: u32,
    /// The backing store.
    pub store: IdMap<u64, Vec<u32>>,
    /// key → slot for cached keys.
    pub cached: IdMap<u64, u8>,
    next_slot: usize,
    popularity: IdMap<u64, u32>,
    /// Windows answered by the server (the "server load" E2 measures).
    pub served: u64,
    /// Cache evictions performed.
    pub evictions: u64,
    /// Pending cache fills `(timer token → key, dst)`: their update
    /// window is built from `store` when the timer fires.
    pending_updates: IdMap<u64, (u64, NodeId)>,
    next_token: u64,
    /// The reply frame's chunks, rewritten for each reply.
    frame: Vec<Chunk>,
}

impl KvsServer {
    /// Creates a server. `control`/`cache_switch` enable cache
    /// management; leave `None` for the no-cache baseline.
    pub fn new(
        kernel: u16,
        val_words: usize,
        cache_switch: Option<SwitchId>,
        control: Option<ControlPlane>,
        cache_slots: usize,
    ) -> Self {
        KvsServer {
            kernel,
            val_words,
            cache_switch,
            control,
            cache_slots,
            hot_threshold: 2,
            store: IdMap::default(),
            cached: IdMap::default(),
            next_slot: 0,
            popularity: IdMap::default(),
            served: 0,
            evictions: 0,
            pending_updates: IdMap::default(),
            next_token: 1 << 48,
            frame: Vec::new(),
        }
    }

    /// The server's `query` window for `key` under `seq`, carrying the
    /// stored value. A key never stored reads as zeros in a reply
    /// (`update` false) and as an empty value in a cache update
    /// (`update` true: update=1, from=SERVER), which writes Cache+Valid
    /// in the data plane and is dropped by the kernel.
    fn reply(&mut self, host: HostId, seq: u32, key: u64, update: bool) -> Vec<u8> {
        let stored = self.store.get(&key);
        let zeros = if stored.is_none() && !update {
            self.val_words
        } else {
            0
        };
        let val = stored
            .into_iter()
            .flatten()
            .copied()
            .chain(std::iter::repeat_n(0, zeros));
        encode_query(&mut self.frame, self.kernel, seq, host, key, val, update)
    }

    /// Queues the switch-cache fill for `key`: Idx insert now (control
    /// plane), the update window after the control-plane delay so the
    /// map entry exists when the window lands. Until that window is
    /// sent, a PUT of `key` is not written through: it would reach the
    /// switch before the `Idx` entry, and the kernel's server-update
    /// branch would write another slot. When the cache is full,
    /// the coldest cached key is evicted first (paper §4.3: "for a
    /// cache eviction, the storage server just removes an item from the
    /// Idx map").
    fn cache_fill(&mut self, ctx: &mut HostCtx, key: u64, client: NodeId) {
        let (Some(switch), Some(cp)) = (self.cache_switch, self.control.as_ref()) else {
            return;
        };
        if self.cached.contains_key(&key) {
            return;
        }
        let slot = if self.cached.len() >= self.cache_slots {
            // Evict the least popular cached key — only if the new key
            // is strictly hotter. Ties break on the key itself so the
            // victim never depends on HashMap iteration order (keeps
            // the whole simulation deterministic run-to-run).
            let new_pop = self.popularity.get(&key).copied().unwrap_or(0);
            let Some((&victim, _)) = self
                .cached
                .iter()
                .min_by_key(|(k, _)| (self.popularity.get(*k).copied().unwrap_or(0), **k))
            else {
                return;
            };
            let victim_pop = self.popularity.get(&victim).copied().unwrap_or(0);
            if victim_pop + 1 >= new_pop {
                return;
            }
            let slot = self.cached.remove(&victim).expect("victim cached");
            self.evictions += 1;
            // A victim still mid-fill never gets its update window: once
            // `Idx` forgets it, the kernel's server-update branch would
            // miss the lookup and write another slot.
            self.pending_updates
                .retain(|_, &mut (key, _)| key != victim);
            // The slot's Valid bit still vouches for the victim's value:
            // clear it before `Idx` points the new key at the slot, or a
            // GET landing before the update window reads the old value.
            let invalidate = cp.reg_write_ops("Valid", slot as usize, Value::bool(false));
            let ops = cp.map_remove_ops("Idx", victim).into_iter();
            for op in ops.chain(invalidate) {
                ctx.ctrl(switch, op);
            }
            slot as usize
        } else {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        };
        let slot = slot as u8;
        self.cached.insert(key, slot);
        for op in cp.map_insert_ops("Idx", key, Value::new(ScalarType::U8, slot as u64)) {
            ctx.ctrl(switch, op);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending_updates.insert(token, (key, client));
        ctx.set_timer(120_000, token); // > 2× the 50 µs controller RTT
    }
}

impl HostApp for KvsServer {
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let Some(q) = QueryFrame::parse(&pkt.payload) else {
            return;
        };
        if q.kernel != self.kernel {
            return;
        }
        let (key, seq, client) = (q.key, q.seq, NodeId::Host(q.sender));
        self.served += 1;
        if q.flag {
            let val = self.store.entry(key).or_default();
            val.clear();
            let words = q.val.chunks_exact(4).take(self.val_words);
            val.extend(words.map(|w| u32::from_be_bytes(w.try_into().expect("4 bytes"))));
            // PUT ack to the client.
            let ack = self.reply(ctx.host, seq, key, false);
            ctx.send(client, ack);
            // Write-through to an existing cache entry; a pending fill
            // carries the new value itself.
            let filling = self.pending_updates.values().any(|&(k, _)| k == key);
            if self.cached.contains_key(&key) && !filling {
                let update = self.reply(ctx.host, u32::MAX, key, true);
                ctx.send(client, update);
            }
        } else {
            let resp = self.reply(ctx.host, seq, key, false);
            ctx.send(client, resp);
            // Hot-item detection (simplified: popularity counter).
            let pop = self.popularity.entry(key).or_insert(0);
            *pop += 1;
            if *pop >= self.hot_threshold {
                self.cache_fill(ctx, key, client);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        if let Some((key, dst)) = self.pending_updates.remove(&token) {
            let update = self.reply(ctx.host, u32::MAX, key, true);
            ctx.send(dst, update);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The Fig. 5 KVS program, parameterized by the server's wire id, cache
/// slots and value width — shared by the example, the integration tests
/// and the E2 bench.
pub fn kvs_source(server_id: u16, slots: usize, val_words: usize) -> String {
    format!(
        r#"
const uint16_t SERVER = {server_id};
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, {slots}> Idx;
_net_ _at_("s1") uint32_t Cache[{slots}][{val_words}] = {{{{0}}}};
_net_ _at_("s1") bool Valid[{slots}] = {{false}};

_net_ _out_ void query(uint64_t key, uint32_t *val, bool update) {{
    if (window.from != SERVER && update) {{
        // client PUT: invalidate, forward to the server
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    }} else if (window.from != SERVER) {{
        // client GET: serve from the cache on a valid hit
        if (auto *idx = Idx[key]) {{
            if (Valid[*idx]) {{
                memcpy(val, Cache[*idx], {val_bytes}); _reflect(); }} }}
    }} else if (update) {{
        // server update: refresh the cached value
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, {val_bytes});
        Valid[*idx] = true; _drop();
    }} else {{ }} // server GET response: pass through to the client
}}
"#,
        server_id = server_id,
        slots = slots,
        val_words = val_words,
        val_bytes = val_words * 4,
    )
}

/// The Fig. 4 AllReduce program, parameterized — shared by the example,
/// tests and the E1 bench.
pub fn allreduce_source(data_len: usize, win_len: usize) -> String {
    format!(
        r#"
#define DATA_LEN {data_len}
#define WIN_LEN {win_len}
_net_ _at_("s1") int accum[DATA_LEN] = {{0}};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {{0}};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {{
    unsigned base = window.seq * window.len;
    if (window.replay) {{
        // NCP-R replay: never re-accumulate. A completed slot reflects
        // the stored sums (recovering a lost broadcast leg); an
        // incomplete one drops and waits for the remaining workers.
        if (count[window.seq] != 0 && count[window.seq] % nworkers == 0) {{
            memcpy(data, &accum[base], window.len * 4);
            _reflect();
        }} else {{ _drop(); }}
    }} else {{
        for (unsigned i = 0; i < window.len; ++i)
            accum[base + i] += data[i];
        if (++count[window.seq] % nworkers == 0) {{
            memcpy(data, &accum[base], window.len * 4);
            _bcast();
        }} else {{ _drop(); }}
    }}
}}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {{
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_codec_roundtrip() {
        let enc = ps_encode(3, 7, &[-1, 2, 3]);
        assert_eq!(ps_decode(&enc), Some((3, 7, vec![-1, 2, 3])));
        assert_eq!(ps_decode(&[0, 0]), None);
        assert_eq!(ps_decode(&enc[..8]), None);
    }

    #[test]
    fn kvs_value_pattern_is_deterministic() {
        assert_eq!(KvsClient::value_for(5, 4), KvsClient::value_for(5, 4));
        assert_ne!(KvsClient::value_for(5, 4), KvsClient::value_for(6, 4));
    }

    #[test]
    fn source_generators_compile() {
        use crate::nclc::{compile, CompileConfig};
        let and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
        // Server is host id 3 (declared after two clients).
        let src = kvs_source(3, 16, 8);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("query".into(), vec![1, 8, 1]);
        let p = compile(&src, and, &cfg).unwrap_or_else(|e| panic!("kvs: {e}"));
        assert!(p.switch("s1").unwrap().report.accepted());

        let src = allreduce_source(64, 8);
        let and = "hosts worker 2\nswitch s1\nlink worker* s1\n";
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![8]);
        cfg.masks.insert("result".into(), vec![8]);
        let p = compile(&src, and, &cfg).unwrap_or_else(|e| panic!("allreduce: {e}"));
        assert!(p.switch("s1").unwrap().report.accepted());
    }
}
